package runcache

// Stripe and Presize expose the index's striping to the external tests.
var (
	Stripe  = stripe
	Presize = presize
)
