// Package cloud simulates the IaaS provider the paper deploys pub/sub
// servers on: instances take time to boot, accrue instance-hours while
// running, and can be released. The load balancer's elasticity decisions
// (§III-B2) are exercised — and their cost consequences measured — against
// this provider.
//
// Beyond the paper's assumptions, an instance can also crash (Crash). A
// crashed instance stops accruing instance-hours at the moment of the crash;
// the failure detector upstairs has to notice it.
package cloud

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/dynamoth/dynamoth/internal/clock"
)

// Errors returned by the simulator.
var (
	ErrUnknownInstance = errors.New("cloud: unknown instance")
	// ErrNotRunning is returned when an operation targets an instance that
	// was already released or crashed. It is distinct from
	// ErrUnknownInstance so callers can tell "never existed" from "already
	// gone" — a Release racing a crash is benign, a Release of a bogus ID
	// is a bug.
	ErrNotRunning = errors.New("cloud: instance not running")
)

// namePrefix prefixes generated instance IDs, keeping them apart from the
// bootstrap pool's "pub1", "pub2", ….
const namePrefix = "pub-x"

// Config configures a Simulator.
type Config struct {
	// BootDelay is how long an instance takes from request to ready
	// (default 10 s — EC2-ish at the scale of the paper's experiments).
	BootDelay time.Duration
	// Clock provides time (default real).
	Clock clock.Clock
}

type instance struct {
	started time.Time
	stopped time.Time // zero while running
}

// Simulator is an in-process cloud provider. It is safe for concurrent use.
type Simulator struct {
	cfg Config

	mu        sync.Mutex
	instances map[string]*instance
	nextID    int
}

// NewSimulator creates a provider.
func NewSimulator(cfg Config) *Simulator {
	if cfg.BootDelay <= 0 {
		cfg.BootDelay = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	return &Simulator{cfg: cfg, instances: make(map[string]*instance)}
}

// Spawn requests a new instance and blocks until it is booted (BootDelay on
// the provider's clock) or ctx is cancelled. It returns the instance ID.
func (s *Simulator) Spawn(ctx context.Context) (string, error) {
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("%s%d", namePrefix, s.nextID)
	s.mu.Unlock()

	// Boot.
	timer := s.cfg.Clock.NewTimer(s.cfg.BootDelay)
	select {
	case <-timer.C():
	case <-ctx.Done():
		timer.Stop()
		return "", ctx.Err()
	}

	s.mu.Lock()
	s.instances[id] = &instance{started: s.cfg.Clock.Now()}
	s.mu.Unlock()
	return id, nil
}

// Release terminates an instance. Releasing an unknown instance returns
// ErrUnknownInstance; releasing one that already stopped (released or
// crashed) returns ErrNotRunning.
func (s *Simulator) Release(id string) error {
	return s.stop(id)
}

// Crash kills a running instance abruptly: it stops accruing instance-hours
// at the crash time and is unreachable afterwards. Crashing an unknown
// instance returns ErrUnknownInstance; an already-stopped one, ErrNotRunning.
func (s *Simulator) Crash(id string) error {
	return s.stop(id)
}

// stop ends a running instance's billing at the current time.
func (s *Simulator) stop(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst, ok := s.instances[id]
	if !ok {
		return ErrUnknownInstance
	}
	if !inst.stopped.IsZero() {
		return ErrNotRunning
	}
	inst.stopped = s.cfg.Clock.Now()
	return nil
}

// InstanceHours returns the cumulative instance-hours consumed so far.
// Crashed instances stop accruing at their crash time.
func (s *Simulator) InstanceHours() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock.Now()
	total := 0.0
	for _, inst := range s.instances {
		end := inst.stopped
		if end.IsZero() {
			end = now
		}
		total += end.Sub(inst.started).Hours()
	}
	return total
}
