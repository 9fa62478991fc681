// Package dataio provides the dataset and model persistence layer: CSV
// files for spatial datasets (the format ExaGeoStat's drivers read) and a
// JSON document for fitted models, so estimation results can be saved,
// shared, and reloaded for prediction.
package dataio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cov"
	"repro/internal/geom"
)

// Records is an on-disk spatial dataset: one measurement per location.
type Records struct {
	Points []geom.Point
	Z      []float64
}

// WriteCSV writes the dataset as "x,y,z" rows with a header line.
func WriteCSV(w io.Writer, r Records) error {
	if len(r.Points) != len(r.Z) {
		return fmt.Errorf("dataio: %d points but %d measurements", len(r.Points), len(r.Z))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("x,y,z\n"); err != nil {
		return err
	}
	for i, p := range r.Points {
		if _, err := fmt.Fprintf(bw, "%.17g,%.17g,%.17g\n", p.X, p.Y, r.Z[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV (or any x,y,z CSV with an
// optional header). The header is detected by parsing, not by content
// sniffing: if the first non-blank line does not parse as three floats it
// is the header, so column names that contain digits ("x_1,y_1,z_1") are
// skipped correctly. Blank lines are skipped; malformed rows after the
// first are reported with their line number.
func ReadCSV(r io.Reader) (Records, error) {
	var out Records
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	first := true
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		vals, err := parseXYZ(line)
		if first {
			first = false
			if err != nil {
				continue // unparsable first line: the header
			}
		}
		if err != nil {
			return Records{}, fmt.Errorf("dataio: line %d: %w", lineNo, err)
		}
		out.Points = append(out.Points, geom.Point{X: vals[0], Y: vals[1]})
		out.Z = append(out.Z, vals[2])
	}
	if err := sc.Err(); err != nil {
		return Records{}, err
	}
	if len(out.Points) == 0 {
		return Records{}, errors.New("dataio: empty dataset")
	}
	return out, nil
}

// parseXYZ parses one "x,y,z" data row.
func parseXYZ(line string) ([3]float64, error) {
	parts := strings.Split(line, ",")
	if len(parts) != 3 {
		return [3]float64{}, fmt.Errorf("want 3 fields, got %d", len(parts))
	}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return [3]float64{}, fmt.Errorf("field %d: %w", i+1, err)
		}
		vals[i] = v
	}
	return vals, nil
}

// WriteCSVFile and ReadCSVFile are the path-based conveniences. The write
// is atomic (temp file + fsync + rename) so a crash mid-write cannot leave
// a truncated dataset on disk.
func WriteCSVFile(path string, r Records) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		return WriteCSV(w, r)
	})
}

// ReadCSVFile reads a dataset from path.
func ReadCSVFile(path string) (Records, error) {
	f, err := os.Open(path)
	if err != nil {
		return Records{}, err
	}
	defer f.Close()
	return ReadCSV(f)
}

// Model is a fitted-model document.
type Model struct {
	// Kind is the covariance family name: "matern", the only one LoadModel
	// accepts ("" reads as Matérn too).
	Kind string `json:"kind"`
	// Theta is the estimated parameter vector.
	Theta cov.Params `json:"theta"`
	// Metric names the distance function ("euclidean", "greatcircle",
	// "greatcircle-earth-100km", "chordal").
	Metric string `json:"metric"`
	// LogLikelihood at the estimate, and how it was computed.
	LogLikelihood float64 `json:"loglik"`
	Mode          string  `json:"mode"`
	Accuracy      float64 `json:"accuracy,omitempty"`
	N             int     `json:"n"`
}

var metricNames = map[geom.Metric]string{
	geom.Euclidean:             "euclidean",
	geom.GreatCircle:           "greatcircle",
	geom.GreatCircleEarth100km: "greatcircle-earth-100km",
	geom.Chordal:               "chordal",
}

// MetricName returns the canonical name of a metric.
func MetricName(m geom.Metric) string {
	if n, ok := metricNames[m]; ok {
		return n
	}
	return fmt.Sprintf("metric(%d)", int(m))
}

// MetricByName resolves a metric name.
func MetricByName(name string) (geom.Metric, error) {
	for m, n := range metricNames {
		if n == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("dataio: unknown metric %q", name)
}

// SaveModel writes the model as indented JSON.
func SaveModel(w io.Writer, m Model) error {
	if err := m.Theta.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// LoadModel parses a model document and validates it. The document is one
// JSON object; anything after it but whitespace — a second document, junk
// appended to the file — is an error.
func LoadModel(r io.Reader) (Model, error) {
	var m Model
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return Model{}, fmt.Errorf("dataio: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Model{}, errors.New("dataio: model document followed by more data")
	}
	if err := m.Theta.Validate(); err != nil {
		return Model{}, err
	}
	if _, err := MetricByName(m.Metric); err != nil {
		return Model{}, err
	}
	// every consumer of a loaded model evaluates Matérn; a document naming
	// another family would be predicted as Matérn without a word
	if m.Kind != "" && m.Kind != "matern" {
		return Model{}, fmt.Errorf("dataio: model kind %q: only \"matern\" is supported", m.Kind)
	}
	return m, nil
}

// SaveModelFile and LoadModelFile are the path-based conveniences. The
// write is atomic (temp file + fsync + rename) so a crash mid-write cannot
// leave a truncated model document on disk.
func SaveModelFile(path string, m Model) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		return SaveModel(w, m)
	})
}

// LoadModelFile loads a model from path.
func LoadModelFile(path string) (Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return Model{}, err
	}
	defer f.Close()
	return LoadModel(f)
}
