package dataio

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the dataset parser — the one reader
// that takes a file straight from the user. It must return an error or a
// non-empty dataset with one measurement per location, never panic; and what
// it accepts must survive WriteCSV → ReadCSV bit for bit (a NaN staying a
// NaN), which is what lets a dataset be re-read for a resumed fit.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"x,y,z\n0.5,0.5,1.25\n0.1,0.9,-0.5\n",
		"0.5,0.5,1.25\n",
		"x_1,y_1,z_1\n\n 1 , 2 , 3 \r\n",
		"1,2\n",
		"1,2,3\n4,5,six\n",
		"1e308,-1e-320,NaN\n+Inf,-0,0x1p-2\n",
		"x,y,z\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := ReadCSV(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if len(rec.Points) == 0 || len(rec.Points) != len(rec.Z) {
			t.Fatalf("accepted %d points with %d measurements", len(rec.Points), len(rec.Z))
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, rec); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading what WriteCSV wrote: %v", err)
		}
		if len(back.Points) != len(rec.Points) {
			t.Fatalf("round trip changed %d rows into %d", len(rec.Points), len(back.Points))
		}
		for i := range rec.Points {
			if !sameBits(rec.Points[i].X, back.Points[i].X) || !sameBits(rec.Points[i].Y, back.Points[i].Y) || !sameBits(rec.Z[i], back.Z[i]) {
				t.Fatalf("row %d changed across the round trip: %v %v -> %v %v", i, rec.Points[i], rec.Z[i], back.Points[i], back.Z[i])
			}
		}
	})
}

// sameBits is float equality that tells +0 from -0 and treats any two NaNs
// as equal (a NaN's payload does not survive its decimal spelling).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}
