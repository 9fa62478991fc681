package tlr

import (
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/rng"
)

func TestMatMulMatchesDense(t *testing.T) {
	a := covTile(t, 20, 16, 0.6)
	c := CompressSVD(a, 1e-12, 0, 0)
	r := rng.New(41)
	b := la.NewMat(16, 5)
	for i := range b.Data {
		b.Data[i] = r.Norm()
	}
	got := la.NewMat(20, 5)
	MatMul(c, la.NoTrans, 2, b, got)
	want := la.NewMat(20, 5)
	la.Gemm(2, a, la.NoTrans, b, la.NoTrans, 0, want)
	if !got.Equalish(want, 1e-9) {
		t.Fatal("MatMul mismatch")
	}
	gotT := la.NewMat(16, 5)
	MatMul(c, la.Transpose, -1, got, gotT)
	wantT := la.NewMat(16, 5)
	la.Gemm(-1, a, la.Transpose, got, la.NoTrans, 0, wantT)
	if !gotT.Equalish(wantT, 1e-9) {
		t.Fatal("transposed MatMul mismatch")
	}
}

func TestForwardSolveMatAgainstDense(t *testing.T) {
	n := 120
	m, dense, _ := maternTLR(t, n, 30, 0.1, 1e-11)
	ref := dense.Clone()
	if err := la.Potrf(ref); err != nil {
		t.Fatal(err)
	}
	if err := Cholesky(m, 2); err != nil {
		t.Fatal(err)
	}
	r := rng.New(43)
	b := la.NewMat(n, 3)
	for i := range b.Data {
		b.Data[i] = r.Norm()
	}
	want := b.Clone()
	la.Trsm(la.Left, la.Lower, la.NoTrans, 1, ref, want)
	got := b.Clone()
	m.ForwardSolveMat(got)
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			if d := math.Abs(got.At(i, j) - want.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-5 {
		t.Fatalf("TLR forward multi-solve deviates by %g", worst)
	}
}
