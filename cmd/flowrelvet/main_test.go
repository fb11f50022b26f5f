package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The testdata/vetme package carries exactly one deliberate finding (an
// unknown waiver marker), giving the exit-code and output-mode tests a
// stable target that wildcard patterns never pull into the real vet run.
const vetme = "./testdata/vetme"

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list is clean", []string{"-list"}, exitClean},
		{"unknown analyzer is an operational error", []string{"-c", "nosuch", vetme}, exitError},
		{"unparseable package is an operational error", []string{"./does/not/exist"}, exitError},
		{"findings exit 1", []string{vetme}, exitFindings},
		{"clean run exits 0", []string{"-c", "floateq", vetme}, exitClean},
		// The external test imports its subject both directly and
		// through a package that depends on it: one subject, no type
		// mismatch.
		{"external test through a dependent type-checks", []string{"-c", "floateq", "./testdata/xtest/subject"}, exitClean},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.want {
				t.Errorf("run(%v) = %d, want %d\nstdout: %s\nstderr: %s",
					c.args, got, c.want, stdout.String(), stderr.String())
			}
		})
	}
}

func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-json", vetme}, &stdout, &stderr); got != exitFindings {
		t.Fatalf("run -json = %d, want %d (stderr: %s)", got, exitFindings, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	n := 0
	for dec.More() {
		var f finding
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("decoding finding %d: %v", n, err)
		}
		n++
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding %d has empty fields: %+v", n, f)
		}
		if f.Analyzer != "waiverlint" {
			t.Errorf("finding %d from %q, want waiverlint", n, f.Analyzer)
		}
	}
	if n == 0 {
		t.Fatal("no JSON findings decoded")
	}
}

func TestOnlyFilter(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-only", "vetme.go", vetme}, &stdout, &stderr); got != exitFindings {
		t.Fatalf("run -only vetme.go = %d, want %d", got, exitFindings)
	}
	stdout.Reset()
	stderr.Reset()
	if got := run([]string{"-only", "unrelated.go", vetme}, &stdout, &stderr); got != exitClean {
		t.Fatalf("run -only unrelated.go = %d, want %d (stdout: %s)", got, exitClean, stdout.String())
	}
}

func TestMatchesAny(t *testing.T) {
	cases := []struct {
		file, filter string
		want         bool
	}{
		{"/repo/internal/core/plan.go", "plan.go", true},
		{"/repo/internal/core/plan.go", "internal/core/plan.go", true},
		{"/repo/internal/core/plan.go", "./internal/core/plan.go", true},
		{"/repo/internal/core/myplan.go", "plan.go", false},
		{"plan.go", "plan.go", true},
	}
	for _, c := range cases {
		if got := matchesAny(c.file, []string{c.filter}); got != c.want {
			t.Errorf("matchesAny(%q, %q) = %v, want %v", c.file, c.filter, got, c.want)
		}
	}
}
