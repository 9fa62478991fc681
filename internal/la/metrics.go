package la

import "repro/internal/obs"

// Kernel invocation counters. One atomic add per call — negligible next to
// any O(n^2) kernel body — resolved once at package init per the obs idiom.
// They answer "which BLAS path did this run actually take, and how often"
// without a profiler: e.g. a TLR factorization shows up as many small gemm
// calls plus svd calls from compression, while the dense path is dominated
// by syrk.
var (
	cntGemm  = obs.GetCounter("la.gemm.calls")
	cntGemv  = obs.GetCounter("la.gemv.calls")
	cntSyrk  = obs.GetCounter("la.syrk.calls")
	cntTrsm  = obs.GetCounter("la.trsm.calls")
	cntPotrf = obs.GetCounter("la.potrf.calls")
	cntSvd   = obs.GetCounter("la.svd.calls")
	cntQr    = obs.GetCounter("la.qr.calls")
	// cntSvdNoConv counts SVDThin calls whose bidiagonal QR iteration spent
	// its budget (6·n² inner steps) before every superdiagonal entry reached
	// zero; the singular values are then only approximate. Expected to stay
	// 0.
	cntSvdNoConv = obs.GetCounter("la.svd.noconverge")
)
