// Package pmem is a fixture stand-in for the persistence package: its path
// tail puts both the callers and the fake device methods in publishcheck's
// scope.
package pmem

// HeaderSize mirrors the real pool header size.
const HeaderSize = 192

// SimDevice mimics the device: Flush offsets are absolute, so a Flush(0, n)
// spanning past the header covers header and body in one fence.
type SimDevice struct{}

func (d *SimDevice) Flush(off, n int64) error                 { return nil }
func (d *SimDevice) Drain() error                             { return nil }
func (d *SimDevice) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (d *SimDevice) FlushHeader() error                       { return nil }

// Accessor mimics a sub-region accessor: its Flush offsets are relative to an
// unknown base, so offset 0 does not imply the device header.
type Accessor struct{ dev *SimDevice }

func (a *Accessor) Flush(off, n int64) error { return nil }

// tornBootstrap is the PR 7 regression shape: the whole image — header
// included — is written and flushed under a single fence, so a torn
// write-back can keep the header granules and lose body ones.
func tornBootstrap(dev *SimDevice, img []byte) error {
	if _, err := dev.WriteAt(img, 0); err != nil {
		return err
	}
	if err := dev.Flush(0, int64(len(img))); err != nil { // want "flush range covers both header and body"
		return err
	}
	return dev.Drain()
}

// headerFirst publishes the header while the body is still in flight.
func headerFirst(dev *SimDevice, body []byte) error {
	if err := dev.FlushHeader(); err != nil { // want "header published before the body"
		return err
	}
	if _, err := dev.WriteAt(body, HeaderSize); err != nil {
		return err
	}
	return dev.Drain()
}

// correctInstall is the body-before-header protocol: body write, body flush,
// fence, then header publish, fence.
func correctInstall(dev *SimDevice, img []byte) error {
	if _, err := dev.WriteAt(img[HeaderSize:], HeaderSize); err != nil {
		return err
	}
	if err := dev.Flush(HeaderSize, int64(len(img))-HeaderSize); err != nil {
		return err
	}
	if err := dev.Drain(); err != nil {
		return err
	}
	if err := dev.Flush(0, HeaderSize); err != nil {
		return err
	}
	return dev.Drain()
}

// accessorFlush proves the sub-region exemption: offset 0 on an accessor is
// relative, so a long Flush(0, n) there is a body flush, not a mixed one.
func accessorFlush(a *Accessor, n int64) error {
	return a.Flush(0, n)
}

// sealedLogCommit is the redo-log shape: the log header seal IS the commit
// point, so the in-place writes after it are justified by the suppression.
func sealedLogCommit(dev *SimDevice, payload []byte) error {
	//ntalint:ignore publishcheck fixture: redo-log protocol seals the log header first by design.
	if err := dev.FlushHeader(); err != nil {
		return err
	}
	if _, err := dev.WriteAt(payload, HeaderSize); err != nil {
		return err
	}
	return dev.Drain()
}
