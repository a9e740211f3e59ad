package hashjoin

import "hashjoin/internal/native"

// NativeHasPrefetch reports whether this build issues real PREFETCHT0
// instructions (amd64 without the purego tag) or the pure-Go no-op
// fallback.
func NativeHasPrefetch() bool { return native.HavePrefetch }
