// Package workload implements the application the paper evaluates Dynamoth
// with (§V-A): RGame, a sub-game of the Mammoth MOG research framework. The
// world is a grid of square tiles; each player is driven by a simple AI that
// repeatedly picks a random waypoint, walks towards it, and takes a short
// break. Players subscribe to the tile they are in and publish their state
// updates on it, so everyone in a tile sees everyone else — generating the
// churn of subscriptions and the publication load of the paper's
// Experiments 2 and 3.
//
// The package also provides the player-count schedules of those experiments
// (a slow ramp for scalability; a rise/drop/rise wave for elasticity).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// pauseMean is the mean break at a waypoint.
const pauseMean = 2 * time.Second

// Config describes the game world.
type Config struct {
	// TilesX and TilesY give the tile grid dimensions (default 8×8).
	TilesX, TilesY int
	// WorldSize is the world's extent per axis in world units (default 1000).
	WorldSize float64
	// Speed is player movement speed in world units/second (default 50).
	Speed float64
	// UpdatesPerSec is the state-update publication rate (default 3, §V-D).
	UpdatesPerSec float64
	// Hotspots places popular attractors in the world (towns, quest hubs):
	// with probability HotspotBias a player's next waypoint lands near one
	// of them instead of being uniform. Hot regions give tiles unequal
	// load — the situation the paper's load balancer exists for (and the
	// assumption consistent hashing cannot handle, §I). 0 disables.
	Hotspots int
	// HotspotBias is the probability a waypoint targets a hotspot
	// (default 0 — uniform waypoints).
	HotspotBias float64
	// PayloadBytes is the state-update payload size (default 200; with
	// envelope overhead this makes one server saturate at ~5000
	// deliveries/second, the calibration point of DESIGN.md §4).
	PayloadBytes int
}

// FillDefaults applies the defaults above in place and returns the config.
func (c Config) FillDefaults() Config {
	if c.TilesX <= 0 {
		c.TilesX = 8
	}
	if c.TilesY <= 0 {
		c.TilesY = 8
	}
	if c.WorldSize <= 0 {
		c.WorldSize = 1000
	}
	if c.Speed <= 0 {
		c.Speed = 50
	}
	if c.UpdatesPerSec <= 0 {
		c.UpdatesPerSec = 3
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 200
	}
	return c
}

// TileName returns the channel name of the tile containing (x, y).
func (c Config) TileName(x, y float64) string {
	tx := int(x / c.WorldSize * float64(c.TilesX))
	ty := int(y / c.WorldSize * float64(c.TilesY))
	if tx < 0 {
		tx = 0
	}
	if tx >= c.TilesX {
		tx = c.TilesX - 1
	}
	if ty < 0 {
		ty = 0
	}
	if ty >= c.TilesY {
		ty = c.TilesY - 1
	}
	return fmt.Sprintf("tile-%d-%d", tx, ty)
}

// Player is one AI-driven avatar.
type Player struct {
	ID uint32

	cfg         Config
	x, y        float64
	tx, ty      float64       // waypoint
	pausedUntil time.Duration // elapsed-time instant the pause ends
	tile        string
}

// NewPlayer creates a player at a random position with a random waypoint.
func NewPlayer(id uint32, cfg Config, rng *rand.Rand) *Player {
	cfg = cfg.FillDefaults()
	p := &Player{
		ID:  id,
		cfg: cfg,
		x:   rng.Float64() * cfg.WorldSize,
		y:   rng.Float64() * cfg.WorldSize,
	}
	p.pickWaypoint(rng)
	p.tile = cfg.TileName(p.x, p.y)
	return p
}

// Tile returns the channel of the tile the player is currently in.
func (p *Player) Tile() string { return p.tile }

// Position returns the player's coordinates.
func (p *Player) Position() (x, y float64) { return p.x, p.y }

// hotspotCenters returns the fixed attractor positions (deterministic
// fractions of the world size, so every player agrees on where town is).
func (c Config) hotspotCenters() [][2]float64 {
	anchors := [][2]float64{
		{0.30, 0.30}, {0.70, 0.55}, {0.45, 0.80},
		{0.15, 0.65}, {0.85, 0.20}, {0.60, 0.10},
	}
	if c.Hotspots < len(anchors) {
		anchors = anchors[:c.Hotspots]
	}
	out := make([][2]float64, len(anchors))
	for i, a := range anchors {
		out[i] = [2]float64{a[0] * c.WorldSize, a[1] * c.WorldSize}
	}
	return out
}

func (p *Player) pickWaypoint(rng *rand.Rand) {
	if p.cfg.Hotspots > 0 && rng.Float64() < p.cfg.HotspotBias {
		centers := p.cfg.hotspotCenters()
		c := centers[rng.Intn(len(centers))]
		// Land within roughly one tile of the attractor.
		spread := p.cfg.WorldSize / float64(p.cfg.TilesX)
		p.tx = clamp(c[0]+(rng.Float64()-0.5)*spread, 0, p.cfg.WorldSize)
		p.ty = clamp(c[1]+(rng.Float64()-0.5)*spread, 0, p.cfg.WorldSize)
		return
	}
	p.tx = rng.Float64() * p.cfg.WorldSize
	p.ty = rng.Float64() * p.cfg.WorldSize
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Advance moves the player by dt of game time; elapsed is total game time so
// far (used for pause bookkeeping). It reports whether the player crossed
// into another tile, and the previous tile's name if so.
func (p *Player) Advance(elapsed, dt time.Duration, rng *rand.Rand) (tileChanged bool, oldTile string) {
	if elapsed < p.pausedUntil {
		return false, ""
	}
	dx := p.tx - p.x
	dy := p.ty - p.y
	dist := math.Hypot(dx, dy)
	step := p.cfg.Speed * dt.Seconds()
	if dist <= step {
		// Waypoint reached: take a break, then pick a new one.
		p.x, p.y = p.tx, p.ty
		pause := time.Duration((0.5 + rng.Float64()) * float64(pauseMean))
		p.pausedUntil = elapsed + pause
		p.pickWaypoint(rng)
	} else {
		p.x += dx / dist * step
		p.y += dy / dist * step
	}
	newTile := p.cfg.TileName(p.x, p.y)
	if newTile != p.tile {
		oldTile = p.tile
		p.tile = newTile
		return true, oldTile
	}
	return false, ""
}

// Update renders the player's state-update payload (fixed size, position
// encoded in the prefix so payloads are realistic, padding after).
func (p *Player) Update(buf []byte) []byte {
	if cap(buf) < p.cfg.PayloadBytes {
		buf = make([]byte, p.cfg.PayloadBytes)
	}
	buf = buf[:p.cfg.PayloadBytes]
	header := fmt.Sprintf("p=%d x=%.1f y=%.1f", p.ID, p.x, p.y)
	n := copy(buf, header)
	for i := n; i < len(buf); i++ {
		buf[i] = ' '
	}
	return buf
}

// ---------------------------------------------------------------------------
// Player-count schedules

// Phase is one segment of a player-count schedule: the target count ramps
// linearly from the previous phase's end to Target over Length.
type Phase struct {
	Length time.Duration
	Target int
}

// Schedule is a piecewise-linear player-count profile.
type Schedule struct {
	Initial int
	Phases  []Phase
}

// CountAt returns the scheduled player count at the given elapsed time.
// Beyond the last phase the final target holds.
func (s Schedule) CountAt(elapsed time.Duration) int {
	prev := float64(s.Initial)
	for _, ph := range s.Phases {
		if elapsed <= ph.Length {
			if ph.Length <= 0 {
				return ph.Target
			}
			f := float64(elapsed) / float64(ph.Length)
			return int(math.Round(prev + (float64(ph.Target)-prev)*f))
		}
		elapsed -= ph.Length
		prev = float64(ph.Target)
	}
	return int(prev)
}

// Duration returns the schedule's total length.
func (s Schedule) Duration() time.Duration {
	var total time.Duration
	for _, ph := range s.Phases {
		total += ph.Length
	}
	return total
}

// ScalabilitySchedule is Experiment 2's profile: ~120 players at start,
// joining steadily up to `peak` (1200 in the paper) over `ramp`.
func ScalabilitySchedule(peak int, ramp time.Duration) Schedule {
	initial := peak / 10
	return Schedule{
		Initial: initial,
		Phases:  []Phase{{Length: ramp, Target: peak}},
	}
}

// ElasticitySchedule is Experiment 3's profile: rise to `high` (800), drop
// to `low` (200), rise again to `mid` (~600).
func ElasticitySchedule(high, low, mid int, phase time.Duration) Schedule {
	return Schedule{
		Initial: 0,
		Phases: []Phase{
			{Length: phase, Target: high},
			{Length: phase / 4, Target: high}, // hold
			{Length: phase / 2, Target: low},
			{Length: phase / 4, Target: low}, // hold
			{Length: phase / 2, Target: mid},
			{Length: phase / 4, Target: mid}, // hold
		},
	}
}
