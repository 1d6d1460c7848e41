// Package nvmtest holds test support for packages that create simulated
// devices.
package nvmtest

import (
	"fmt"
	"os"
	"testing"

	"github.com/text-analytics/ntadoc/internal/nvm"
)

// Main is a TestMain body that holds a package's tests to the device
// lifecycle contract: every image they mapped — engines, serving cuts,
// crash clones — has been given back by a Discard when the tests are done.
//
//	func TestMain(m *testing.M) { nvmtest.Main(m) }
func Main(m *testing.M) {
	before := nvm.MappedBytes()
	code := m.Run()
	if leaked := nvm.MappedBytes() - before; leaked != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "tests leaked %d bytes of device images (a device without Discard)\n", leaked)
		code = 1
	}
	os.Exit(code)
}
