package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
)

// Replication configures per-shard follower replication for a sharded
// engine.  Each shard's primary device ships its drained persistence stream
// — which carries the shard's op-log records along with every other durable
// delta — to the shard's followers, so a follower holds a recoverable image
// of the shard and the scatter-gather path can fail over to it when the
// primary dies.  Shipping is on commit: every drained commit batch is
// durable on every live follower before the primary's Drain returns, so a
// live follower's durable image is the primary's as of its last commit.
type Replication struct {
	// Followers is how many follower devices to create per shard (ignored
	// when FollowerDevices is set).
	Followers int
	// FollowerDevices, when non-nil, injects the follower devices: one slice
	// per shard (len must equal the shard count; a shard's slice may be
	// empty).  The crash harness injects pre-armed followers this way.  On
	// successful construction the engine takes ownership; on construction
	// failure they stay with the caller, mirroring Options.ShardDevices.
	FollowerDevices [][]*nvm.SimDevice
}

// enabled reports whether any replication was requested.
func (r Replication) enabled() bool {
	return r.Followers > 0 || r.FollowerDevices != nil
}

// follower is one replica device and its ship state.
type follower struct {
	dev *nvm.SimDevice
	err error // non-nil once demoted: shipping to it failed
}

// replicator ships one shard primary's drained commit batches to its
// followers (the log-shipping shape: the primary's persistence stream is the
// replicated log, and applying it in order reproduces the durable image byte
// for byte).  Follower failures never propagate to the primary — a dead
// follower is demoted, recorded, and skipped — while primary failures are
// the scatter-gather path's failover trigger, not the replicator's concern.
type replicator struct {
	mu        sync.Mutex
	primary   *nvm.SimDevice
	followers []*follower // guarded by mu
}

var _ nvm.Shipper = (*replicator)(nil)

// newReplicator wires a primary to its follower devices.  Call bootstrap to
// install the initial snapshot, then attach with primary.SetShipper.
func newReplicator(primary *nvm.SimDevice, devs []*nvm.SimDevice) *replicator {
	r := &replicator{primary: primary}
	for _, dev := range devs {
		r.followers = append(r.followers, &follower{dev: dev})
	}
	return r
}

// bootstrap installs the primary's current durable image on every follower
// (the snapshot that later shipped deltas extend).  The snapshot is read
// host-side off the modeled critical path; making it durable again is
// charged at each follower.  A follower that fails during install is
// demoted; only a failure to read the primary's image errors out.
func (r *replicator) bootstrap() error {
	img := make([]byte, r.primary.Size())
	if err := r.primary.ReadDurable(img); err != nil {
		return fmt.Errorf("core: replication bootstrap: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.followers {
		if f.err != nil {
			continue
		}
		if err := installImage(f.dev, img); err != nil {
			f.err = fmt.Errorf("bootstrap: %w", err)
		}
	}
	return nil
}

// installImage makes img the device's entire durable image, with the
// pool's own ordering discipline: the body is persisted and fenced before
// the header is.  A crash mid-install then leaves either no valid header
// (recovery reloads from the compressed input) or a CRC-detectably torn
// one — never a header vouching for body contents that did not make it.
func installImage(dev *nvm.SimDevice, img []byte) error {
	const chunk = 1 << 20
	for off := 0; off < len(img); off += chunk {
		end := min(off+chunk, len(img))
		if _, err := dev.WriteAt(img[off:end], int64(off)); err != nil {
			return err
		}
	}
	hdr := min(int64(pmem.HeaderSize), int64(len(img)))
	if err := dev.Flush(hdr, int64(len(img))-hdr); err != nil {
		return err
	}
	if err := dev.Drain(); err != nil {
		return err
	}
	if err := dev.Flush(0, hdr); err != nil {
		return err
	}
	return dev.Drain()
}

// ShipCommit implements nvm.Shipper: the primary's Drain hands over each
// committed durable delta, and it is made durable on every live follower
// before the Drain returns.  Always returns nil — a torn follower must not
// fail the primary's commit.
func (r *replicator) ShipCommit(batch []nvm.ShipRange) error {
	if len(batch) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.followers {
		f.apply(batch)
	}
	return nil
}

// apply makes one commit batch durable on the follower; failure demotes it.
func (f *follower) apply(batch []nvm.ShipRange) {
	if f.err != nil {
		return
	}
	for _, sr := range batch {
		if _, err := f.dev.WriteAt(sr.Data, sr.Off); err != nil {
			f.err = fmt.Errorf("ship write: %w", err)
			return
		}
		if err := f.dev.Flush(sr.Off, int64(len(sr.Data))); err != nil {
			f.err = fmt.Errorf("ship flush: %w", err)
			return
		}
	}
	if err := f.dev.Drain(); err != nil {
		f.err = fmt.Errorf("ship drain: %w", err)
	}
}

// promote hands the first live follower over for failover — every live
// follower holds the primary's last commit, so the first is as fresh as any
// — removing it from the replica set and returning it along with the
// remaining live followers.  The shipper is detached from the (dead) primary
// by the caller.
func (r *replicator) promote() (dev *nvm.SimDevice, rest []*nvm.SimDevice, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.followers {
		if f.err != nil {
			continue
		}
		if dev == nil {
			dev = f.dev
		} else {
			rest = append(rest, f.dev)
		}
	}
	if dev == nil {
		errs := []error{errors.New("core: no live follower to promote")}
		for _, f := range r.followers {
			errs = append(errs, f.err)
		}
		return nil, nil, errors.Join(errs...)
	}
	// Live followers are promoted or handed to the successor replicator;
	// demoted ones stay behind so a later close still discards their devices.
	demoted := r.followers[:0]
	for _, f := range r.followers {
		if f.err != nil {
			demoted = append(demoted, f)
		}
	}
	r.followers = demoted
	return dev, rest, nil
}

// liveFollowers returns the current live follower devices.
func (r *replicator) liveFollowers() []*nvm.SimDevice {
	r.mu.Lock()
	defer r.mu.Unlock()
	var devs []*nvm.SimDevice
	for _, f := range r.followers {
		if f.err == nil {
			devs = append(devs, f.dev)
		}
	}
	return devs
}

// close detaches from the primary and discards the follower devices.
func (r *replicator) close() error {
	r.primary.SetShipper(nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for _, f := range r.followers {
		if err := f.dev.Discard(); err != nil {
			errs = append(errs, err)
		}
	}
	r.followers = nil
	return errors.Join(errs...)
}
