package sdmmon

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchModule vets and runs the short tests of bench/, the benchmark
// module. It is a Go module of its own (it uses this one through a replace
// directive), so `go test ./...` here never builds it; this test does,
// with the running toolchain, so a signature change in a package the
// benchmark calls fails the repository's own tests.
func TestBenchModule(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, args := range [][]string{
		{"vet", "./..."},
		{"test", "-short", "-count=1", "./..."},
	} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "bench"
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOFLAGS=-buildvcs=false")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in bench/: %v\n%s", args, err, out)
		}
	}
}
