//go:build !unix

package nvm

import "os"

// Without mmap an image is a heap slice, a file's image a copy of it that
// sysSync writes back whole.

func sysMap(f *os.File, size int64, _ bool) ([]byte, error) {
	b := make([]byte, size)
	if f == nil {
		return b, nil
	}
	_, err := f.ReadAt(b, 0)
	return b, err
}

func sysUnmap([]byte) error { return nil }

func sysSync(f *os.File, img []byte) error {
	if _, err := f.WriteAt(img, 0); err != nil {
		return err
	}
	return f.Sync()
}
