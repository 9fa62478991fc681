package tile

import (
	"testing"

	"repro/internal/la"
	"repro/internal/rng"
)

// The block forward solve against the dense factor's.
func TestSolveMatMatchesDenseCholesky(t *testing.T) {
	n := 50
	a := spd(n, 51)
	ref := a.Clone()
	if err := la.Potrf(ref); err != nil {
		t.Fatal(err)
	}
	m := FromDense(a, 12)
	if err := Cholesky(m, 3); err != nil {
		t.Fatal(err)
	}
	r := rng.New(52)
	const nrhs = 4
	b := la.NewMat(n, nrhs)
	for i := range b.Data {
		b.Data[i] = r.Norm()
	}
	want := b.Clone()
	la.Trsm(la.Left, la.Lower, la.NoTrans, 1, ref, want)
	got := b.Clone()
	m.ForwardSolveMat(got)
	if !got.Equalish(want, 1e-8) {
		t.Fatal("tile multi-RHS forward solve disagrees with dense")
	}
}
