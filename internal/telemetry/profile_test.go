package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestProfileConfigFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var p ProfileConfig
	p.RegisterFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", "cpu.out", "-trace", "t.out"}); err != nil {
		t.Fatal(err)
	}
	if p.CPUProfile != "cpu.out" || p.Trace != "t.out" || p.MemProfile != "" {
		t.Errorf("parsed config = %+v", p)
	}
}

func TestStartProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	p := ProfileConfig{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
		Trace:      filepath.Join(dir, "exec.trace"),
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to flush.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("second stop errored: %v", err)
	}
	for _, f := range []string{p.CPUProfile, p.MemProfile, p.Trace} {
		st, err := os.Stat(f)
		if err != nil {
			t.Errorf("profile %s missing: %v", f, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", f)
		}
	}
}

func TestStartProfilesBadPath(t *testing.T) {
	p := ProfileConfig{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "x")}
	if _, err := p.Start(); err == nil {
		t.Error("Start succeeded with an uncreatable path")
	}
}
