package experiment

import (
	"time"

	"github.com/dynamoth/dynamoth/internal/balancer"
	"github.com/dynamoth/dynamoth/internal/loadgen"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/metrics"
	"github.com/dynamoth/dynamoth/internal/sim"
	"github.com/dynamoth/dynamoth/internal/workload"
)

// snapshotEvery is the series row granularity.
const snapshotEvery = 10 * time.Second

// GameOptions parameterizes the RGame experiments (Experiments 2 and 3).
type GameOptions struct {
	// Mode selects Dynamoth or the consistent-hashing baseline.
	Mode sim.Mode
	// Schedule is the player-count profile over time.
	Schedule workload.Schedule
	// Tail keeps the simulation running after the schedule ends.
	Tail time.Duration
	// World is the RGame configuration.
	World workload.Config
	// MaxServers caps the pool (default 8, as in the paper).
	MaxServers int
	// Seed drives the run (default 1).
	Seed int64
	// TWait overrides the balancer's plan spacing (0 keeps the default);
	// used by the T_wait ablation.
	TWait time.Duration
}

func (o GameOptions) fill() GameOptions {
	if o.Mode == "" {
		o.Mode = sim.ModeDynamoth
	}
	o.World = o.World.FillDefaults()
	if o.MaxServers <= 0 {
		o.MaxServers = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// GameResult bundles one game run's series and headline numbers.
type GameResult struct {
	// Series columns: players, servers, outMsgs (deliveries/s),
	// rt_ms (mean response time in the window), avgLR, maxLR.
	// Rebalance instants appear as marks.
	Series *metrics.Series
	// MaxHealthyPlayers is the largest player count reached before the
	// response time durably crossed 150 ms (three consecutive 10 s windows
	// over the bar; shorter spikes at rebalances are tolerated — the paper
	// notes its own rebalance bursts are "only of short duration") — the
	// paper's "supports up to N players".
	MaxHealthyPlayers int
	// PeakServers is the largest concurrently active server count.
	PeakServers int
	// FinalServers is the pool size at the end (elasticity release).
	FinalServers int
	// Rebalances is the number of plan changes.
	Rebalances int
	// MeanRTms is the response-time mean over the healthy portion.
	MeanRTms float64
	// InstanceSeconds is the cumulative server-seconds the run consumed —
	// the cloud cost the paper's elasticity exists to minimize.
	InstanceSeconds float64
	// AvgLocalPlanSize is the mean client local-plan size at the end of
	// the run (§II-C: lazy propagation keeps client state small).
	AvgLocalPlanSize float64
}

// RunGame executes one RGame run under the given options.
func RunGame(opts GameOptions) *GameResult {
	opts = opts.fill()
	bcfg := simBalancerConfig(opts.MaxServers, opts.TWait)
	s := sim.New(sim.Config{
		Seed:     opts.Seed,
		Mode:     opts.Mode,
		Balancer: bcfg,
	})

	g := &gameDriver{
		sim:     s,
		opts:    opts,
		players: make(map[uint32]*playerState),
	}

	series := metrics.NewSeries("t", "players", "servers", "outMsgs", "rt_ms", "avgLR", "maxLR")
	res := &GameResult{Series: series}
	var lastSnap sim.UnitSnapshot

	// Aggregate unit snapshots into snapshotEvery rows.
	var winOut int64
	var winUnits int
	var winAvgLR, winMaxLR float64
	var healthySum float64
	var healthyN int
	var unhealthyRun int
	var breached bool
	s.OnUnit(func(u sim.UnitSnapshot) {
		lastSnap = u
		winOut += u.OutMsgs
		winUnits++
		winAvgLR += u.AvgLoadRatio
		if u.MaxLoadRatio > winMaxLR {
			winMaxLR = u.MaxLoadRatio
		}
		if u.ActiveServers > res.PeakServers {
			res.PeakServers = u.ActiveServers
		}
		if u.Elapsed%snapshotEvery != 0 {
			return
		}
		t := u.Elapsed.Seconds()
		rtMs := g.rt.meanMs()
		series.Record(t, "players", float64(u.Clients))
		series.Record(t, "servers", float64(u.ActiveServers))
		series.Record(t, "outMsgs", float64(winOut)/float64(winUnits))
		series.Record(t, "rt_ms", rtMs)
		series.Record(t, "avgLR", winAvgLR/float64(winUnits))
		series.Record(t, "maxLR", winMaxLR)
		healthy := rtMs > 0 && rtMs <= 150
		if !breached {
			if healthy {
				unhealthyRun = 0
				if u.Clients > res.MaxHealthyPlayers {
					res.MaxHealthyPlayers = u.Clients
				}
			} else {
				unhealthyRun++
				if unhealthyRun >= 3 {
					breached = true // 30 s over the bar: durable breach
				}
			}
		}
		if healthy {
			healthySum += rtMs
			healthyN++
		}
		g.rt.reset()
		winOut, winUnits, winAvgLR, winMaxLR = 0, 0, 0, 0
	})

	// Churn loop; each player runs its own staggered update loop (clients
	// are independent machines in the paper's testbed, so their 3 msg/s
	// clocks are not aligned).
	s.Engine().Every(time.Second, g.churn)

	start := s.Now()
	total := opts.Schedule.Duration() + opts.Tail
	s.RunFor(total)

	for _, r := range s.Rebalances() {
		series.Mark(r.Time.Sub(start).Seconds(), "rebalance")
	}
	res.Rebalances = len(s.Rebalances())
	res.FinalServers = s.ActiveServers()
	res.InstanceSeconds = s.InstanceSeconds()
	res.AvgLocalPlanSize = lastSnap.AvgLocalPlanSize
	if healthyN > 0 {
		res.MeanRTms = healthySum / float64(healthyN)
	}
	return res
}

// RunScalability reproduces Experiment 2 (Fig. 5a–c) for one balancer mode.
// peak and ramp default to the paper's 1200 players joining over rampSec.
func RunScalability(mode sim.Mode, peak int, ramp time.Duration, seed int64) *GameResult {
	return RunGame(GameOptions{
		Mode:     mode,
		Schedule: workload.ScalabilitySchedule(peak, ramp),
		Tail:     ramp / 5,
		Seed:     seed,
	})
}

// RunElasticity reproduces Experiment 3 (Fig. 7a/7b): rise to high, drop to
// low, rise to mid.
func RunElasticity(high, low, mid int, phase time.Duration, seed int64) *GameResult {
	return RunGame(GameOptions{
		Mode:     sim.ModeDynamoth,
		Schedule: workload.ElasticitySchedule(high, low, mid, phase),
		Tail:     phase / 2,
		Seed:     seed,
	})
}

func simBalancerConfig(maxServers int, twait time.Duration) balancer.Config {
	cfg := balancer.DefaultConfig()
	cfg.MaxServers = maxServers
	cfg.MinServers = 1
	if twait > 0 {
		cfg.TWait = twait
	}
	return cfg
}

// gameDriver drives players in the simulator.
type gameDriver struct {
	sim     *sim.Sim
	opts    GameOptions
	players map[uint32]*playerState
	order   []uint32 // join order, for deterministic iteration and removal
	nextID  uint32
	rt      rtAccum
}

type playerState struct {
	avatar *workload.Player
	client *sim.Client
}

// churn adds or removes players to match the schedule.
func (g *gameDriver) churn() {
	target := g.opts.Schedule.CountAt(g.sim.Elapsed())
	for len(g.players) < target {
		g.addPlayer()
	}
	for len(g.players) > target {
		g.removePlayer()
	}
}

func (g *gameDriver) addPlayer() {
	g.nextID++
	id := g.nextID
	avatar := workload.NewPlayer(id, g.opts.World, g.sim.Rand())
	client := g.sim.AddClient(id)
	client.OnData = func(_ string, _ *message.Envelope, sentAt time.Time) {
		g.rt.sum += g.sim.Now().Sub(sentAt)
		g.rt.count++
	}
	client.Subscribe(avatar.Tile())
	ps := &playerState{avatar: avatar, client: client}
	g.players[id] = ps
	g.order = append(g.order, id)

	// Staggered per-player update loop: random phase, fixed rate. Ticks are
	// scheduled at absolute instants off a drift-free plan — chaining
	// After(period) truncates the sub-nanosecond remainder of 1/rate every
	// tick, which under-publishes long runs at rates that do not divide a
	// second evenly (3/s lost ~1 update per player-hour).
	period := time.Duration(float64(time.Second) / g.opts.World.UpdatesPerSec)
	offset := time.Duration(g.sim.Rand().Float64() * float64(period))
	sched := loadgen.NewSchedule(g.opts.World.UpdatesPerSec, offset)
	joined := g.sim.Now()
	var tick uint64
	var loop func()
	loop = func() {
		if g.players[id] != ps {
			return // player left
		}
		g.step(ps, period)
		tick++
		g.sim.Engine().At(joined.Add(sched.At(tick)), loop)
	}
	g.sim.Engine().At(joined.Add(sched.At(0)), loop)
}

// step advances one player by one update period and publishes its state.
func (g *gameDriver) step(ps *playerState, dt time.Duration) {
	if changed, oldTile := ps.avatar.Advance(g.sim.Elapsed(), dt, g.sim.Rand()); changed {
		// Subscribe to the new tile before leaving the old one, as the
		// game does, so no update is missed at the boundary.
		ps.client.Subscribe(ps.avatar.Tile())
		ps.client.Unsubscribe(oldTile)
	}
	ps.client.PublishTimed(ps.avatar.Tile(), g.opts.World.PayloadBytes)
}

func (g *gameDriver) removePlayer() {
	// Most recent joiner leaves first (deterministic LIFO).
	for len(g.order) > 0 {
		id := g.order[len(g.order)-1]
		g.order = g.order[:len(g.order)-1]
		if _, ok := g.players[id]; !ok {
			continue
		}
		delete(g.players, id)
		g.sim.RemoveClient(id)
		return
	}
}
