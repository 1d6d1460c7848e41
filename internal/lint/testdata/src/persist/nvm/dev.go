// Package nvm is a fixture stand-in for the real device package: its path
// tail ("nvm") puts its methods in persistcheck's scope.
package nvm

// Device mimics the persistence surface of the simulated device.
type Device struct{}

func (d *Device) Drain() error             { return nil }
func (d *Device) Flush(off, n int64) error { return nil }
func (d *Device) Crash() error             { return nil }
func (d *Device) CrashAt(seed int64) error { return nil }
func (d *Device) Stats() int               { return 0 } // no error: out of scope

// Syncer is the interface shape: persistcheck must catch calls through an
// interface method just as through the concrete one.
type Syncer interface {
	Drain() error
}
