//go:build unix

package nvm

import (
	"os"
	"syscall"
)

func sysMap(f *os.File, size int64, shared bool) ([]byte, error) {
	fd, flags := -1, syscall.MAP_ANON|syscall.MAP_PRIVATE
	if f != nil {
		fd, flags = int(f.Fd()), syscall.MAP_PRIVATE
		if shared {
			flags = syscall.MAP_SHARED
		}
	}
	return syscall.Mmap(fd, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, flags)
}

func sysUnmap(b []byte) error { return syscall.Munmap(b) }

// sysSync makes a shared file mapping's stores durable.  They are already in
// the file's page-cache pages, which fsync writes back.
func sysSync(f *os.File, _ []byte) error { return f.Sync() }
