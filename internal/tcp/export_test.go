package tcp

// SetMaxBatchRounds overrides the inline round-coalescing cap for tests,
// returning a func that restores the previous value. A cap of zero
// disables coalescing entirely: every round completion re-enters the
// engine through the event heap, which is the reference behaviour the
// batched path must reproduce bit for bit.
func SetMaxBatchRounds(n int) (restore func()) {
	old := maxBatchRounds
	maxBatchRounds = n
	return func() { maxBatchRounds = old }
}
