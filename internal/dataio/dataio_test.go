package dataio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/rng"
)

func sample(n int) Records {
	r := rng.New(1)
	rec := Records{Points: geom.GeneratePerturbedGrid(n, r), Z: make([]float64, n)}
	r.NormSlice(rec.Z)
	return rec
}

func TestCSVRoundTrip(t *testing.T) {
	rec := sample(50)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rec); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != 50 {
		t.Fatalf("round trip lost rows: %d", len(back.Points))
	}
	for i := range rec.Points {
		if rec.Points[i] != back.Points[i] || rec.Z[i] != back.Z[i] {
			t.Fatalf("row %d not bit-exact after round trip", i)
		}
	}
}

func TestCSVHeaderOptional(t *testing.T) {
	in := "0.5,0.5,1.25\n0.1,0.9,-0.5\n"
	rec, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Points) != 2 || rec.Z[1] != -0.5 {
		t.Fatalf("headerless parse wrong: %+v", rec)
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"",                 // empty
		"x,y,z\n",          // header only
		"1,2\n",            // missing field
		"1,2,3,4\n",        // extra field
		"1,2,notanumber\n", // bad float
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail: %q", i, in)
		}
	}
}

func TestCSVMismatch(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, Records{Points: make([]geom.Point, 2), Z: make([]float64, 3)})
	if err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	rec := sample(10)
	if err := WriteCSVFile(path, rec); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != 10 {
		t.Fatal("file round trip lost rows")
	}
	if _, err := ReadCSVFile(filepath.Join(dir, "missing.csv")); !os.IsNotExist(err) {
		t.Fatal("missing file should surface os error")
	}
}

func model() Model {
	return Model{
		Kind:          "matern",
		Theta:         cov.Params{Variance: 1.2, Range: 0.15, Smoothness: 0.7},
		Metric:        "euclidean",
		LogLikelihood: -123.4,
		Mode:          "tlr",
		Accuracy:      1e-7,
		N:             1600,
	}
}

func TestModelRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, model()); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != model() {
		t.Fatalf("model round trip changed: %+v", back)
	}
}

func TestModelValidationOnLoad(t *testing.T) {
	bad := []string{
		`{"kind":"matern","theta":{"Variance":-1,"Range":0.1,"Smoothness":0.5},"metric":"euclidean"}`,
		`{"kind":"matern","theta":{"Variance":1,"Range":0.1,"Smoothness":0.5},"metric":"taxicab"}`,
		`{"kind":"wavelet","theta":{"Variance":1,"Range":0.1,"Smoothness":0.5},"metric":"euclidean"}`,
		`{not json`,
	}
	for i, in := range bad {
		if _, err := LoadModel(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestModelKindOnLoad: only Matérn is evaluated from a model document, so a
// document naming another covariance family does not load; an empty kind
// reads as Matérn.
func TestModelKindOnLoad(t *testing.T) {
	for kind, ok := range map[string]bool{
		"matern": true, "": true,
		"spherical": false, "gaussian": false, "powexp": false, "wavelet": false, "Matern": false,
	} {
		doc := fmt.Sprintf(`{"kind":%q,"theta":{"Variance":1,"Range":0.1,"Smoothness":0.5},"metric":"euclidean"}`, kind)
		m, err := LoadModel(strings.NewReader(doc))
		if ok && (err != nil || m.Kind != kind) {
			t.Errorf("kind %q: %+v, %v; want it loaded", kind, m, err)
		}
		if !ok && (err == nil || !strings.Contains(err.Error(), "kind")) {
			t.Errorf("kind %q: loaded %+v (err %v), want an error naming the kind", kind, m, err)
		}
	}
}

// TestModelTrailingBytes: a model document is one JSON object and nothing but
// whitespace after it — two concatenated files or a document with junk
// appended must not load as the first object.
func TestModelTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, model()); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, c := range []struct {
		name, in string
		ok       bool
	}{
		{"as saved", doc, true},
		{"trailing whitespace", doc + " \n\t\r\n", true},
		{"two documents", doc + doc, false},
		{"junk appended", doc + "junk", false},
		{"stray bracket", doc + "]", false},
		{"trailing number", doc + "0", false},
	} {
		m, err := LoadModel(strings.NewReader(c.in))
		if c.ok && (err != nil || m != model()) {
			t.Errorf("%s: %+v, %v; want the saved model", c.name, m, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: loaded %+v, want an error", c.name, m)
		}
	}
}

func TestModelSaveRejectsInvalidTheta(t *testing.T) {
	m := model()
	m.Theta.Range = 0
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err == nil {
		t.Fatal("invalid theta must not serialize")
	}
}

func TestMetricNames(t *testing.T) {
	for _, m := range []geom.Metric{geom.Euclidean, geom.GreatCircle, geom.GreatCircleEarth100km, geom.Chordal} {
		name := MetricName(m)
		back, err := MetricByName(name)
		if err != nil || back != m {
			t.Fatalf("metric %v name round trip failed (%q)", m, name)
		}
	}
	if _, err := MetricByName("manhattan"); err == nil {
		t.Fatal("unknown metric should error")
	}
}

func TestModelFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := SaveModelFile(path, model()); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModelFile(path)
	if err != nil || back != model() {
		t.Fatalf("file round trip failed: %+v %v", back, err)
	}
}
