package main

import (
	"bytes"
	"strings"
	"testing"

	"hashjoin/internal/cli"
)

// TestRunFlagValidation pins strict flag handling: every malformed
// invocation exits with the usage code and a diagnostic naming the
// problem, and never renders a partial chart.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"no fig", nil, "-fig is required"},
		// The retired trajectory mode's flag is refused, not ignored.
		{"fig and bench", []string{"-fig", "fig12", "-bench", "x.json"}, "flag provided but not defined: -bench"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"positional junk", []string{"-fig", "fig12", "extra"}, "unexpected arguments"},
		{"unknown fig", []string{"-fig", "fig99"}, `unknown experiment "fig99"`},
		{"unknown scale", []string{"-fig", "fig12", "-scale", "huge"}, `unknown scale "huge"`},
		{"zero width", []string{"-fig", "fig12", "-width", "0"}, "out of range"},
		{"negative width", []string{"-fig", "fig12", "-width", "-3"}, "out of range"},
		{"huge width", []string{"-fig", "fig12", "-width", "10000"}, "out of range"},
		{"non-numeric width", []string{"-fig", "fig12", "-width", "wide"}, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != cli.ExitUsage {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, cli.ExitUsage, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantMsg) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.wantMsg)
			}
			if stdout.Len() != 0 {
				t.Fatalf("partial chart rendered on a usage error: %q", stdout.String())
			}
		})
	}
}

// TestRunRendersChart checks a valid invocation exits 0 and draws bars.
func TestRunRendersChart(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fig", "fig12", "-scale", "tiny", "-width", "20"}, &stdout, &stderr)
	if code != cli.ExitOK {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "==") || !strings.Contains(out, "#") {
		t.Fatalf("no chart in output:\n%s", out)
	}
}
