package dataio

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the dataset parser — the one reader
// that takes a file straight from the user. It must return an error or a
// non-empty dataset of finite values with one measurement per location,
// never panic; and what it accepts must survive WriteCSV → ReadCSV bit for
// bit, which is what lets a dataset be re-read for a resumed fit.
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
		for i, p := range rec.Points {
			for _, v := range []float64{p.X, p.Y, rec.Z[i]} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("row %d accepted with a non-finite value: %v %v", i, p, rec.Z[i])
				}
			}
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

// FuzzLoadModel feeds arbitrary bytes to the model-document reader, which
// loads files from outside the process. It must return an error or a valid
// model, never panic; and every document it accepts must go through
// SaveModel → LoadModel to an equal Model.
func FuzzLoadModel(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, model()); err != nil {
		f.Fatal(err)
	}
	saved := buf.String()
	for _, seed := range []string{
		saved,
		saved[:len(saved)/2],
		saved + "junk",
		strings.Replace(saved, `"matern"`, `"wavelet"`, 1),
		strings.Replace(saved, `"euclidean"`, `"taxicab"`, 1),
		strings.Replace(saved, `"Variance": 1.2`, `"Variance": -1.2`, 1),
		"",
		strings.Replace(saved, `"matern"`, `"spherical"`, 1),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := LoadModel(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := SaveModel(&out, m); err != nil {
			t.Fatalf("saving an accepted model %+v: %v", m, err)
		}
		back, err := LoadModel(&out)
		if err != nil {
			t.Fatalf("re-loading what SaveModel wrote: %v\n%s", err, out.Bytes())
		}
		if back != m {
			t.Fatalf("round trip changed %+v into %+v", m, back)
		}
	})
}

// sameBits is float equality that tells +0 from -0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Operations of FuzzBlobFileRegions: the low two bits of an op byte; the rest
// of the byte picks the live blob it applies to, the next byte is size−1.
const (
	blobPutReuse = iota // Put over a live blob, handing back its region as prev
	blobPutFresh        // Put of a new blob (zero prev)
	blobFree
	blobGet // nothing of its own: every step ends by reading every live blob back
)

// FuzzBlobFileRegions drives a BlobFile — the spill file under the
// out-of-core tile cache — with a byte-coded sequence of Put (over the
// caller's previous region, or fresh), Free and Get, beside an in-memory
// model of what is live and which capacities are free. After every
// operation: live regions lie inside the file and never overlap, every live
// blob reads back as its last Put, Size never shrinks and never falls below
// the live bytes, a Put that fits its previous region stays in it, and one
// that does not takes the smallest free capacity that holds it — the file
// grows, by exactly the payload, only when none does. Payloads are at least
// one byte: a zero-capacity Region is the type's "no region".
func FuzzBlobFileRegions(f *testing.F) {
	op := func(code, blob, size int) []byte { return []byte{byte(code | blob<<2), byte(size - 1)} }
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	// rewrite in place, smaller then back to capacity
	f.Add(seq(op(blobPutFresh, 0, 100), op(blobPutReuse, 0, 50), op(blobGet, 0, 1), op(blobPutReuse, 0, 100)))
	// outgrow a region: it is freed, the file grows, the next small blob takes it
	f.Add(seq(op(blobPutFresh, 0, 10), op(blobPutReuse, 0, 200), op(blobPutFresh, 0, 8), op(blobGet, 1, 1)))
	// best fit: with 30 and 60 free, 50 takes the 60 and 20 the 30
	f.Add(seq(op(blobPutFresh, 0, 30), op(blobPutFresh, 0, 60), op(blobPutFresh, 0, 90), op(blobFree, 1, 1), op(blobFree, 0, 1),
		op(blobPutFresh, 0, 50), op(blobPutFresh, 0, 20)))
	// free everything, refill at the same sizes: no growth
	f.Add(seq(op(blobPutFresh, 0, 64), op(blobPutFresh, 0, 32), op(blobFree, 0, 1), op(blobFree, 0, 1),
		op(blobPutFresh, 0, 32), op(blobPutFresh, 0, 64), op(blobGet, 0, 1), op(blobGet, 1, 1)))
	// operations with nothing live, a one-byte blob, a dangling op byte
	f.Add(append(seq(op(blobGet, 3, 1), op(blobFree, 2, 1), op(blobPutReuse, 5, 1), op(blobPutReuse, 0, 256)), blobFree))

	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := NewBlobFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		type blob struct {
			r    Region
			data []byte
		}
		var live []blob
		var freeCaps []int64 // the model's free list: capacities only
		for step := 0; step+1 < len(raw); step += 2 {
			code, pick, n := int(raw[step]&3), int(raw[step]>>2), int64(raw[step+1])+1
			at := -1
			if len(live) > 0 {
				at = pick % len(live)
			}
			sizeBefore := b.Size()
			switch {
			case code == blobPutReuse || code == blobPutFresh:
				var prev Region
				if code == blobPutReuse && at >= 0 {
					prev = live[at].r
				}
				data := bytes.Repeat([]byte{byte(step + 1)}, int(n))
				r, err := b.Put(data, prev)
				if err != nil {
					t.Fatal(err)
				}
				if r.Len != n || r.Cap < n {
					t.Fatalf("step %d: Put of %d bytes returned %+v", step, n, r)
				}
				grew := b.Size() - sizeBefore
				if prev.Valid() && n <= prev.Cap {
					if r.Off != prev.Off || r.Cap != prev.Cap || grew != 0 {
						t.Fatalf("step %d: %d bytes fit %+v but moved to %+v (file grew %d)", step, n, prev, r, grew)
					}
				} else {
					if prev.Valid() {
						freeCaps = append(freeCaps, prev.Cap)
					}
					best := -1
					for i, c := range freeCaps {
						if c >= n && (best < 0 || c < freeCaps[best]) {
							best = i
						}
					}
					if best >= 0 {
						if r.Cap != freeCaps[best] || grew != 0 {
							t.Fatalf("step %d: %d bytes with capacity %d free got %+v (file grew %d)", step, n, freeCaps[best], r, grew)
						}
						freeCaps = append(freeCaps[:best], freeCaps[best+1:]...)
					} else if r.Off != sizeBefore || r.Cap != n || grew != n {
						t.Fatalf("step %d: %d bytes with nothing free to hold them got %+v (file %d -> %d)", step, n, r, sizeBefore, b.Size())
					}
				}
				if prev.Valid() {
					live[at] = blob{r, data}
				} else {
					live = append(live, blob{r, data})
				}
			case code == blobFree && at >= 0:
				b.Free(live[at].r)
				freeCaps = append(freeCaps, live[at].r.Cap)
				live = append(live[:at], live[at+1:]...)
			}
			if b.Size() < sizeBefore {
				t.Fatalf("step %d: file shrank %d -> %d", step, sizeBefore, b.Size())
			}
			var liveBytes int64
			for i, x := range live {
				liveBytes += x.r.Len
				if x.r.Off < 0 || x.r.Off+x.r.Cap > b.Size() {
					t.Fatalf("step %d: live region %+v outside the %d-byte file", step, x.r, b.Size())
				}
				for _, y := range live[:i] {
					if x.r.Off < y.r.Off+y.r.Cap && y.r.Off < x.r.Off+x.r.Cap {
						t.Fatalf("step %d: live regions %+v and %+v overlap", step, x.r, y.r)
					}
				}
				got, err := b.Get(x.r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, x.data) {
					t.Fatalf("step %d: region %+v reads back %d bytes of %d, want %d of %d", step, x.r, len(got), got[0], len(x.data), x.data[0])
				}
			}
			if b.Size() < liveBytes {
				t.Fatalf("step %d: file of %d bytes holds %d live", step, b.Size(), liveBytes)
			}
		}
	})
}
