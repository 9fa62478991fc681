package exprt

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/datasets"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/tlr"
)

// Fig1 reproduces the paper's Figure 1 concept: the TLR representation of a
// covariance matrix. It builds a real Matérn covariance in TLR format and
// prints the per-tile rank map — dense diagonal, ranks decaying away from
// the diagonal.
func Fig1(o Options) error {
	o = o.withDefaults()
	n, nb := 1024, 128
	acc := 1e-7
	r := rng.New(o.Seed)
	pts := geom.GeneratePerturbedGrid(n, r)
	pts = geom.Sorted(geom.Morton, pts)
	k := cov.NewKernel(maternRef())
	m := tlr.FromKernel(k, pts, geom.Euclidean, n, nb, acc, tlr.CompressSVD, 1e-9, o.Workers)

	fmt.Fprintf(o.Out, "TLR representation of Σ(θ): n=%d, nb=%d, accuracy %.0e\n", n, nb, acc)
	fmt.Fprintf(o.Out, "per-tile ranks (D = dense diagonal tile of %d):\n\n", nb)
	for i := 0; i < m.MT; i++ {
		fmt.Fprint(o.Out, "  ")
		for j := 0; j <= i; j++ {
			if j == i {
				fmt.Fprintf(o.Out, "%4s", "D")
			} else {
				fmt.Fprintf(o.Out, "%4d", m.Off(i, j).Rank())
			}
		}
		fmt.Fprintln(o.Out)
	}
	maxK, meanK := m.RankStats()
	fmt.Fprintf(o.Out, "\nmax rank %d, mean rank %.1f — TLR storage %.2f MB vs dense %.2f MB (%.1fx compression)\n",
		maxK, meanK, float64(m.Bytes())/1e6, float64(m.DenseBytes())/1e6,
		float64(m.DenseBytes())/float64(m.Bytes()))
	return nil
}

// Fig8 renders the two simulated real datasets as ASCII field maps with
// their regional layout (the paper's Figure 8 shows the soil-moisture and
// wind-speed maps with regions R1…R8 / R1…R4).
func Fig8(o Options) error {
	o = o.withDefaults()
	soil, err := datasets.SoilMoisture(regionPoints(o.Scale), o.Seed)
	if err != nil {
		return err
	}
	wind, err := datasets.WindSpeed(regionPoints(o.Scale), o.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.Out, "(a) simulated soil-moisture field, 8 regions (4x2 layout)")
	renderField(o, soil, 72, 20)
	fmt.Fprintln(o.Out, "\n(b) simulated wind-speed field, 4 regions (2x2 layout over the Arabian Peninsula)")
	renderField(o, wind, 48, 20)
	fmt.Fprintln(o.Out, "\nshading: field value quantiles (low '.' to high '#'); each region is an")
	fmt.Fprintln(o.Out, "independent Gaussian random field with the paper's Table I/II estimates as truth")
	return nil
}

func renderField(o Options, ds *datasets.Dataset, w, h int) {
	var minX, maxX, minY, maxY float64
	var all []float64
	first := true
	for _, reg := range ds.Regions {
		for i, p := range reg.Points {
			if first {
				minX, maxX, minY, maxY = p.X, p.X, p.Y, p.Y
				first = false
			}
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
			all = append(all, reg.Z[i])
		}
	}
	lo, hi := all[0], all[0]
	for _, v := range all {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	shades := []byte(" .:-=+*#")
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = make([]byte, w)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	for _, reg := range ds.Regions {
		for i, p := range reg.Points {
			x := int((p.X - minX) / (maxX - minX + 1e-12) * float64(w-1))
			y := int((p.Y - minY) / (maxY - minY + 1e-12) * float64(h-1))
			level := int((reg.Z[i] - lo) / (hi - lo + 1e-12) * float64(len(shades)-1))
			grid[h-1-y][x] = shades[level]
		}
	}
	for _, row := range grid {
		fmt.Fprintf(o.Out, "  |%s|\n", row)
	}
	names := ""
	for _, reg := range ds.Regions {
		names += reg.Name + " "
	}
	fmt.Fprintf(o.Out, "  regions: %s(θ truths from the paper's full-tile estimates)\n", names)
}
