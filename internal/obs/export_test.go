package obs

// Counts exposes a histogram's bucket counts, overflow bucket last, to
// the external tests.
func Counts(h *Histogram) []int64 { return h.w[histHeader:] }
