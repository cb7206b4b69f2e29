# bench_lib.sh — the single source of truth for the key-benchmark set.
# Sourced by bench_compare.sh and bench_json.sh; the Makefile targets
# invoke those scripts without setting BENCH, so changing the set here
# changes the gate, the local delta table and the BENCH_PR.json
# artifact together — they can never silently diverge.
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

KEY_BENCHES='BenchmarkServeScore|BenchmarkLoadEndToEnd|BenchmarkGBMPredict|BenchmarkFeedIngest|BenchmarkScoreHotPath|BenchmarkCoalescedScore|BenchmarkMemoLookup|BenchmarkContentKey|BenchmarkStoreAppend|BenchmarkStoreScan|BenchmarkVerdictsPage|BenchmarkTracedScore|BenchmarkWindowedHist|BenchmarkAdmission|BenchmarkTargetIdentification|BenchmarkSearchQuery|BenchmarkAnalyze$|BenchmarkFeatureExtraction|BenchmarkTermExtraction|BenchmarkDecodeScoreRequest|BenchmarkGBMTrain|BenchmarkCorpusBuild'
KEY_GATE='BenchmarkServeScore|BenchmarkLoadEndToEnd|BenchmarkGBMPredict/layout=flat|BenchmarkFeedIngest|BenchmarkScoreHotPath|BenchmarkCoalescedScore|BenchmarkMemoLookup|BenchmarkContentKey|BenchmarkStoreAppend/backend=segmented|BenchmarkStoreScan/backend=segmented|BenchmarkVerdictsPage|BenchmarkTracedScore|BenchmarkWindowedHist|BenchmarkAdmission|BenchmarkTargetIdentification|BenchmarkSearchQuery|BenchmarkAnalyze(-|$)|BenchmarkFeatureExtraction|BenchmarkTermExtraction|BenchmarkDecodeScoreRequest/path=fast|BenchmarkGBMTrain|BenchmarkCorpusBuild'
