package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/exprt"
)

func TestRun(t *testing.T) {
	names := exprt.Names()
	cases := []struct {
		name string
		args []string
		code int
		want []string // substrings of standard output
	}{
		{"list", []string{"-list"}, 0, names},
		{"one experiment", []string{"-exp", "fig2", "-workers", "1"}, 0,
			[]string{"========== fig2 — Fig. 2", "362 for MLE", "[completed in"}},
		{"unknown experiment", []string{"-exp", "fig99"}, 2, nil},
		{"unknown scale", []string{"-exp", "fig2", "-scale", "huge"}, 2, nil},
		{"removed flag", []string{"-kernels", "x.json"}, 2, nil},
		// The -exp help is built from the registry: it names fig1 and
		// extensions, which the hard-coded string it replaces left out.
		{"help", []string{"-h"}, 0, append([]string{"extensions, or all"}, names...)},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		if code := run(tc.args, &out); code != tc.code {
			t.Errorf("%s: exit status %d, want %d", tc.name, code, tc.code)
		}
		if tc.code != 0 && out.Len() != 0 {
			t.Errorf("%s: a usage error wrote to standard output: %q", tc.name, out.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output missing %q:\n%s", tc.name, want, out.String())
			}
		}
	}
}
