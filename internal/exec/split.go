package exec

// splitWork resolves the chunking parameters of a ParallelFor launch: the
// effective grain and the number of participating workers. It is shared by
// every Launcher implementation so the pools agree exactly on how a
// launch decomposes (the conformance tests rely on this).
//
// A non-positive grain picks a chunk size giving each *participating*
// worker about eight chunks — when n < workers only n workers can
// participate, so the heuristic divides by that count, not the pool size.
// The participant count is then capped by the number of chunks, so callers
// can detect the degenerate single-chunk case (nw == 1) and run inline.
//
//sptrsv:hotpath
func splitWork(n, grain, workers int) (int, int) {
	nw := workers
	if n < nw {
		nw = n
	}
	if grain <= 0 {
		grain = n / (nw * 8)
		if grain < 1 {
			grain = 1
		}
	}
	chunks := (n + grain - 1) / grain
	if chunks < nw {
		nw = chunks
	}
	return grain, nw
}
