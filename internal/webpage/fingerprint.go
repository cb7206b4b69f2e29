package webpage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// preimagePool recycles the canonical-encoding buffer ContentKey
// hashes. The key is computed per request on the serving hot path, so
// the preimage — which can be page-sized — must not be rebuilt on the
// heap each time.
var preimagePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

// maxPooledPreimage caps the buffer capacity returned to preimagePool:
// one pathological multi-megabyte snapshot must not leave page-sized
// buffers pinned in the pool serving every later small page.
const maxPooledPreimage = 1 << 20

// Key128 is the identity of "the same page": the first 128 bits of
// sha256 over an injective encoding of the landing URL and every
// content field of a snapshot. It is the one identity the system
// trusts — the stage memo's table key, the v2 content_fingerprint and
// ETag stem, and the verdict store's supersede key are all this value
// — so it has to hold against a client who chooses the page bytes:
// sha256 is collision-resistant, 128 bits keep the birthday bound out
// of reach, and the length-prefixed preimage leaves no two distinct
// snapshots with the same bytes to hash.
type Key128 struct {
	Hi, Lo uint64
}

// String renders the key as 32 lower-case hex digits, in one
// allocation: the string itself.
func (k Key128) String() string {
	h := k.Hex()
	return string(h[:])
}

// Hex returns the digits String spells, by value, for a caller that
// builds a longer string around them.
func (k Key128) Hex() [32]byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k.Hi)
	binary.BigEndian.PutUint64(b[8:], k.Lo)
	var h [32]byte
	hex.Encode(h[:], b[:])
	return h
}

// ContentKey returns the content identity of a snapshot. The landing
// URL is part of it because feature extraction reads the landing URL:
// two snapshots differing only there must not share memoized stages or
// a verdict. The preimage is built in a pooled buffer and hashed on the
// stack; ContentKey never allocates.
func ContentKey(snap *Snapshot) Key128 {
	bp := preimagePool.Get().(*[]byte)
	b := appendPreimage((*bp)[:0], snap)
	sum := sha256.Sum256(b)
	if cap(b) <= maxPooledPreimage {
		*bp = b
		preimagePool.Put(bp)
	}
	return Key128{Hi: binary.BigEndian.Uint64(sum[:8]), Lo: binary.BigEndian.Uint64(sum[8:16])}
}

// Fingerprint is ContentKey in its string form — what verdicts, ETags
// and store records carry.
func Fingerprint(snap *Snapshot) string {
	return ContentKey(snap).String()
}

// appendPreimage appends the canonical encoding of snap. Every string
// is length-prefixed and every list count-prefixed, in a fixed field
// order, so the encoding is injective: distinct field tuples never
// share a preimage (a separator byte would not do — page text may
// contain any byte, NUL included).
func appendPreimage(b []byte, snap *Snapshot) []byte {
	b = fpString(b, snap.LandingURL)
	b = fpString(b, snap.StartingURL)
	b = fpList(b, snap.RedirectionChain)
	b = fpList(b, snap.LoggedLinks)
	b = fpList(b, snap.HREFLinks)
	b = fpList(b, snap.ScreenshotTerms)
	b = fpString(b, snap.Title)
	b = fpString(b, snap.Text)
	b = fpString(b, snap.Copyright)
	b = fpString(b, snap.Language)
	b = binary.LittleEndian.AppendUint64(b, uint64(snap.InputCount))
	b = binary.LittleEndian.AppendUint64(b, uint64(snap.ImageCount))
	return binary.LittleEndian.AppendUint64(b, uint64(snap.IFrameCount))
}

// fpString appends one string of the preimage: an 8-byte length, then
// the bytes.
func fpString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// fpList appends a string list: an 8-byte count, then each element
// fpString-encoded.
func fpList(b []byte, ss []string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ss)))
	for _, s := range ss {
		b = fpString(b, s)
	}
	return b
}
