package cli

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"barriermimd/internal/serve"
)

// TestNonNegative is the table-driven contract of the shared flag
// validator, including the exact rejection each CLI surfaces.
func TestNonNegative(t *testing.T) {
	cases := []struct {
		name    string
		flags   []intFlag
		wantErr string // "" = accept
	}{
		{"empty", nil, ""},
		{"zero", []intFlag{{"j", 0}}, ""},
		{"positive", []intFlag{{"seeds", 4}, {"lanes", 32}}, ""},
		{"negative", []intFlag{{"j", -1}}, "-j = -1, need >= 0"},
		{"firstOfSeveral", []intFlag{{"seeds", -2}, {"lanes", -3}}, "-seeds = -2, need >= 0"},
		{"laterFlag", []intFlag{{"seeds", 1}, {"lanes", -7}}, "-lanes = -7, need >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := nonNegative(tc.flags...)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("nonNegative(%v) = %v, want nil", tc.flags, err)
			case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
				t.Fatalf("nonNegative(%v) = %v, want %q", tc.flags, err, tc.wantErr)
			}
		})
	}

	// Every CLI funnels through the same validator: each rejects a
	// negative count flag with the shared message and exit code 1.
	// bmserve also rejects a non-positive -window, pointing at -maxbatch 1
	// for batch-size-1 serving.
	clis := []struct {
		name string
		run  func(args []string, stderr *bytes.Buffer) int
		args []string
		want string
	}{
		{"bmsim", func(a []string, e *bytes.Buffer) int {
			return Sim(a, strings.NewReader(""), &bytes.Buffer{}, e)
		}, []string{"-seeds", "-1"}, "-seeds = -1, need >= 0"},
		{"bmsched", func(a []string, e *bytes.Buffer) int {
			return Sched(a, strings.NewReader(""), &bytes.Buffer{}, e)
		}, []string{"-j", "-2", "-example"}, "-j = -2, need >= 0"},
		{"bmsched-procs", func(a []string, e *bytes.Buffer) int {
			return Sched(a, strings.NewReader(""), &bytes.Buffer{}, e)
		}, []string{"-procs", "4097", "-example"}, "Processors = 4097, need <= 4096"},
		{"bmexp", func(a []string, e *bytes.Buffer) int {
			return Exp(a, &bytes.Buffer{}, e)
		}, []string{"-lanes", "-3"}, "-lanes = -3, need >= 0"},
		{"bmserve", func(a []string, e *bytes.Buffer) int {
			return Serve(a, &bytes.Buffer{}, e)
		}, []string{"-maxbatch", "-4"}, "-maxbatch = -4, need >= 0"},
		{"bmserve-window0", func(a []string, e *bytes.Buffer) int {
			return Serve(a, &bytes.Buffer{}, e)
		}, []string{"-window", "0"}, "-window = 0s, need > 0 (for batch-size-1 serving use -maxbatch 1)"},
		{"bmserve-windowNegative", func(a []string, e *bytes.Buffer) int {
			return Serve(a, &bytes.Buffer{}, e)
		}, []string{"-window", "-1ms"}, "use -maxbatch 1"},
	}
	for _, tc := range clis {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if rc := tc.run(tc.args, &stderr); rc != 1 {
				t.Fatalf("%s %v: rc=%d, want 1", tc.name, tc.args, rc)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("%s stderr %q, want it to contain %q", tc.name, stderr.String(), tc.want)
			}
		})
	}
}

// TestServeBannerShowsServedConfig checks that bmserve announces the
// settings the server applies: -maxbatch 0 selects the default, 64, and
// the banner says so.
func TestServeBannerShowsServedConfig(t *testing.T) {
	banner := serveBanner("127.0.0.1:8080", serve.New(serve.Config{MaxBatch: 0}).Config())
	if want := fmt.Sprintf("(coalescing %v, maxbatch %d)", serve.DefaultWindow, serve.DefaultMaxBatch); !strings.Contains(banner, want) {
		t.Errorf("banner %q does not contain %q", banner, want)
	}
	if !strings.Contains(banner, "maxbatch 64") {
		t.Errorf("banner %q does not announce maxbatch 64", banner)
	}
}
