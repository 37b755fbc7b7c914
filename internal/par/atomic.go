package par

import "sync/atomic"

// MinInt32 atomically lowers *addr to v if v is smaller, returning true when
// the store happened. It is the hooking primitive of the connected-components
// kernel ("absorb higher labeled colors into lower labeled neighbors").
func MinInt32(addr *int32, v int32) bool {
	for {
		old := atomic.LoadInt32(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt32(addr, old, v) {
			return true
		}
	}
}

// MaxInt32 atomically raises *addr to v if v is larger, returning true when
// the store happened.
func MaxInt32(addr *int32, v int32) bool {
	for {
		old := atomic.LoadInt32(addr)
		if v <= old {
			return false
		}
		if atomic.CompareAndSwapInt32(addr, old, v) {
			return true
		}
	}
}

// CASInt32 wraps atomic.CompareAndSwapInt32 for symmetry with the helpers
// above; BFS uses it to claim unvisited vertices exactly once.
func CASInt32(addr *int32, old, new int32) bool {
	return atomic.CompareAndSwapInt32(addr, old, new)
}
