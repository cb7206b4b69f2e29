# bench_lib.sh — the single source of truth for the key-benchmark set.
# Sourced by bench_compare.sh; the Makefile targets invoke it without
# setting BENCH, so changing the set here changes the gate, the local
# delta table and BENCH_PR.json together: all three come from one run.
#
# KEY_BENCHES selects what runs; KEY_GATE is the gate filter over the
# resulting (sub-)benchmark names. BenchmarkGBMPredict is gated by its
# layout=flat name, and the store benchmarks by their full
# backend=segmented names, so a base ref that still ran the tree-walk
# layout (now a test oracle in internal/ml) or a second store
# engine does not read as a removal.
# BenchmarkVerdictsPage is the same read one layer up: a whole
# /v2/verdicts page through ServeHTTP.
# BenchmarkAnalyze is anchored (the -N suffix is the GOMAXPROCS tag) so
# BenchmarkAnalyzeCtx stays out. BenchmarkDecodeScoreRequest is gated
# by its path=fast name: the encoding/json fallback stays benchmarked,
# but only hand-written or malformed documents reach it.
# BenchmarkGBMTrain and BenchmarkCorpusBuild are the two halves of
# set-up (every self-trained server, kptrain and the benchmark's
# setup_s pay both).
#
# Dropped arms, each with the gated arm that covers its code:
# BenchmarkStoreScan/backend=segmented by its form=append arm (Scan is
# AppendScan into an empty page); CoalescedScore's conc=8 arms by conc=1
# and conc=64 on either side of them; the deleted ScoreHotPath/path=cold
# by CoalescedScore/conc=1/memo=cold (the same stage machine, through
# the memo) with Analyze, FeatureExtraction and GBMPredict; and the
# deleted MemoLookup by TracedScore/tracing=off, the same memo hit.
# ScoreHotPath/path=warm timed a supplied-analysis path that is gone.

KEY_BENCHES='BenchmarkServeScore|BenchmarkLoadEndToEnd|BenchmarkGBMPredict|BenchmarkFeedIngest|BenchmarkCoalescedScore|BenchmarkContentKey|BenchmarkStoreAppend|BenchmarkStoreScan|BenchmarkVerdictsPage|BenchmarkTracedScore|BenchmarkWindowedHist|BenchmarkTargetIdentification|BenchmarkSearchQuery|BenchmarkAnalyze$|BenchmarkFeatureExtraction|BenchmarkTermExtraction|BenchmarkDecodeScoreRequest|BenchmarkGBMTrain|BenchmarkCorpusBuild'
KEY_GATE='BenchmarkServeScore|BenchmarkLoadEndToEnd|BenchmarkGBMPredict/layout=flat|BenchmarkFeedIngest|BenchmarkCoalescedScore/conc=(1|64)/|BenchmarkContentKey|BenchmarkStoreAppend/backend=segmented|BenchmarkStoreScan/backend=segmented/form=append|BenchmarkVerdictsPage|BenchmarkTracedScore|BenchmarkWindowedHist|BenchmarkTargetIdentification|BenchmarkSearchQuery|BenchmarkAnalyze(-|$)|BenchmarkFeatureExtraction|BenchmarkTermExtraction|BenchmarkDecodeScoreRequest/path=fast|BenchmarkGBMTrain|BenchmarkCorpusBuild'
