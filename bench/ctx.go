package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"

	"repro/internal/core"
)

// check is one correctness gate of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// phaseCount is the per-phase request accounting of a load phase.
type phaseCount struct {
	Phase  string `json:"phase"`
	Sent   int    `json:"sent"`
	OK     int    `json:"ok"`
	Shed   int    `json:"shed"`
	Failed int    `json:"failed"`
}

// runCtx is one pass of one workload: its inputs' parameters, the span
// recorder (nil on the untraced pass) and everything the pass observed.
type runCtx struct {
	workload string
	sz       sizes
	seed     uint64
	seconds  float64
	procs    int // P: workers, ranks, connections and closed-loop clients
	traced   bool
	rec      *recorder
	outDir   string
	started  time.Time

	vals      map[string]float64
	checks    []check
	notes     []string
	phases    []phaseCount
	configs   map[string]core.Config
	attempted int
	failed    int
	inputs    hasher
	direct    [][]float64 // latency blocks of the direct predicts, ms
}

func newRunCtx(workload string, sz sizes, seed uint64, seconds float64, procs int, traced bool, outDir string) *runCtx {
	c := &runCtx{
		workload: workload, sz: sz, seed: seed, seconds: seconds, procs: procs,
		traced: traced, outDir: outDir, started: time.Now(),
		vals: map[string]float64{}, configs: map[string]core.Config{},
	}
	if traced {
		c.rec = newRecorder()
	}
	return c
}

// budget is a share of the run's measuring time.
func (c *runCtx) budget(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

func (c *runCtx) set(name string, v float64) { c.vals[name] = v }

// op books operations (evaluations, fits, predicts, requests, ingests).
func (c *runCtx) op(attempted, failed int) {
	c.attempted += attempted
	c.failed += failed
}

// try books one operation and, when it failed, records the error as a failed
// check so the run ends incorrect rather than silently short.
func (c *runCtx) try(what string, err error) error {
	c.attempted++
	if err != nil {
		c.failed++
		c.check(what, false, err.Error())
	}
	return err
}

func (c *runCtx) check(name string, ok bool, format string, args ...any) {
	c.checks = append(c.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (c *runCtx) note(format string, args ...any) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// finish turns the pass into its result: the traced pass reports every
// per-layer metric (0 where the workload leaves the layer idle), the untraced
// pass every end-to-end metric, each of which must have been measured.
func (c *runCtx) finish(runErr error) result {
	if runErr != nil {
		c.check("run", false, runErr.Error())
	}
	if c.rec != nil {
		path := filepath.Join(c.outDir, "trace-"+c.workload+".json")
		if err := c.rec.writeChrome(path); err != nil {
			c.check("write trace", false, err.Error())
		}
	}
	defs := endToEnd
	if c.traced {
		defs = perLayer
	}
	res := result{
		Correct: true, Attempted: max(c.attempted, 1), Failed: c.failed,
		Metrics: metrics{}, workload: c.workload, traced: c.traced, notes: c.notes,
	}
	for _, d := range defs {
		v, ok := c.vals[d.Name]
		if !c.traced && (!ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
			c.check("metric "+d.Name, false, "not measured (%v)", v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for _, ck := range c.checks {
		res.Correct = res.Correct && ck.OK
	}
	res.checks = c.checks
	return res
}

// envelope is the self-describing record of one pass: where and on what it
// ran, with which inputs and configurations, and everything it measured.
type envelope struct {
	Workload   string                 `json:"workload"`
	Traced     bool                   `json:"traced"`
	GitSHA     string                 `json:"git_sha"`
	GoVersion  string                 `json:"go_version"`
	GOOS       string                 `json:"goos"`
	GOARCH     string                 `json:"goarch"`
	NumCPU     int                    `json:"num_cpu"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	CPUModel   string                 `json:"cpu_model"`
	P          int                    `json:"p"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Sizes      sizes                  `json:"sizes"`
	Inputs     string                 `json:"input_digest"`
	Configs    map[string]core.Config `json:"configs"`
	Phases     []phaseCount           `json:"phases,omitempty"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Checks     []check                `json:"checks"`
	Values     map[string]float64     `json:"values"` // everything measured, reported or not
	Metrics    metrics                `json:"metrics"`
	WallS      float64                `json:"wall_s"`
}

func (c *runCtx) envelope(res result) envelope {
	return envelope{
		Workload: c.workload, Traced: c.traced,
		GitSHA: gitSHA(), GoVersion: goruntime.Version(), GOOS: goruntime.GOOS, GOARCH: goruntime.GOARCH,
		NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), CPUModel: cpuModel(), P: c.procs,
		Seed: c.seed, Seconds: c.seconds, Sizes: c.sz, Inputs: c.inputs.sum(),
		Configs: c.configs, Phases: c.phases,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Checks: res.checks,
		Values: c.vals, Metrics: res.Metrics, WallS: time.Since(c.started).Seconds(),
	}
}

// appendRecord appends one envelope to a JSON-lines record file.
func appendRecord(path string, e envelope) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitSHA reads the checked-out commit from .git without starting a process;
// "unknown" outside a git checkout (the benchmark driver's copies are not).
func gitSHA() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		ref, isRef := strings.CutPrefix(h, "ref: ")
		if !isRef {
			return h
		}
		if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(sha))
		}
		return ref
	}
	return "unknown"
}

// cpuModel is the first "model name" of /proc/cpuinfo, "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
