package balancer

import (
	"sort"
	"sync"

	"github.com/dynamoth/dynamoth/internal/lla"
)

// ChannelLoad is one channel's averaged per-second load on one server.
type ChannelLoad struct {
	Publishers   float64 // distinct publishers per unit (averaged)
	Publications float64 // publications/second
	Subscribers  float64 // subscriber count (latest)
	MessagesSent float64 // deliveries/second
	BytesIn      float64 // bytes/second received
	BytesOut     float64 // bytes/second sent — the load that counts (§III-A)
}

// ServerLoad is one server's aggregated view over the metric window.
type ServerLoad struct {
	Server      string
	MaxBps      float64 // T_i
	MeasuredBps float64 // M_i (from the LLA's NIC measurement)
	// CPUUtil is the node's reported CPU busy fraction (0 when the
	// deployment does not report CPU).
	CPUUtil  float64
	Channels map[string]ChannelLoad
}

// Ratio returns the server's load ratio LR_i = M_i / T_i (eq. 1).
func (s ServerLoad) Ratio() float64 {
	if s.MaxBps <= 0 {
		return 0
	}
	return s.MeasuredBps / s.MaxBps
}

// RatioCPUAware returns max(LR_i, CPU): the paper's §VII extension for
// environments where (virtual) CPU, not bandwidth, is the scarce resource.
func (s ServerLoad) RatioCPUAware() float64 {
	r := s.Ratio()
	if s.CPUUtil > r {
		return s.CPUUtil
	}
	return r
}

// BusiestChannel returns the channel with the highest outgoing byte rate and
// that rate; ok is false if the server hosts no channels. skip channels for
// which skip returns true (e.g. control channels).
func (s ServerLoad) BusiestChannel(skip func(string) bool) (string, float64, bool) {
	best := ""
	var bestOut float64
	for ch, cl := range s.Channels {
		if skip != nil && skip(ch) {
			continue
		}
		if best == "" || cl.BytesOut > bestOut {
			best, bestOut = ch, cl.BytesOut
		}
	}
	return best, bestOut, best != ""
}

// State aggregates LLA reports into per-server load views. It keeps a
// sliding window of time units per server and is safe for concurrent use.
type State struct {
	mu      sync.Mutex
	window  int
	servers map[string]*serverState
}

type serverState struct {
	maxBps   float64
	measured float64
	cpu      float64
	units    []lla.UnitStats // most recent last
	lastSeq  uint64
}

// NewState creates a State averaging over the given number of time units.
func NewState(window int) *State {
	if window <= 0 {
		window = 5
	}
	return &State{window: window, servers: make(map[string]*serverState)}
}

// AddReport folds one LLA report into the state. Stale (out-of-order)
// reports are ignored.
func (st *State) AddReport(r *lla.Report) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.servers[r.Server]
	if s == nil {
		s = &serverState{}
		st.servers[r.Server] = s
	}
	if r.Seq != 0 && r.Seq <= s.lastSeq {
		return
	}
	s.lastSeq = r.Seq
	s.maxBps = r.MaxOutgoingBps
	s.measured = r.MeasuredOutgoingBps
	s.cpu = r.CPUUtilization
	s.units = append(s.units, r.Units...)
	if over := len(s.units) - st.window; over > 0 {
		s.units = append([]lla.UnitStats(nil), s.units[over:]...)
	}
}

// Forget removes a server from the state (after it is despawned).
func (st *State) Forget(server string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.servers, server)
}

// Servers returns the servers present in the state, sorted.
func (st *State) Servers() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.servers))
	for s := range st.servers {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Snapshot computes the averaged per-server loads. Servers that have
// reported at least once are included even if idle.
func (st *State) Snapshot() []ServerLoad {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]ServerLoad, 0, len(st.servers))
	names := make([]string, 0, len(st.servers))
	for name := range st.servers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := st.servers[name]
		sl := ServerLoad{
			Server:      name,
			MaxBps:      s.maxBps,
			MeasuredBps: s.measured,
			CPUUtil:     s.cpu,
			Channels:    make(map[string]ChannelLoad),
		}
		n := len(s.units)
		if n > 0 {
			type accum struct {
				pubsSum, publicationsSum, sentSum float64
				bytesInSum, bytesOutSum           float64
				lastSubscribers                   float64
			}
			acc := make(map[string]*accum)
			for _, u := range s.units {
				for _, c := range u.Channels {
					a := acc[c.Channel]
					if a == nil {
						a = &accum{}
						acc[c.Channel] = a
					}
					a.pubsSum += float64(c.Publishers)
					a.publicationsSum += float64(c.Publications)
					a.sentSum += float64(c.MessagesSent)
					a.bytesInSum += float64(c.BytesIn)
					a.bytesOutSum += float64(c.BytesOut)
					a.lastSubscribers = float64(c.Subscribers)
				}
			}
			for ch, a := range acc {
				sl.Channels[ch] = ChannelLoad{
					Publishers:   a.pubsSum / float64(n),
					Publications: a.publicationsSum / float64(n),
					Subscribers:  a.lastSubscribers,
					MessagesSent: a.sentSum / float64(n),
					BytesIn:      a.bytesInSum / float64(n),
					BytesOut:     a.bytesOutSum / float64(n),
				}
			}
		}
		out = append(out, sl)
	}
	return out
}

// TotalChannelLoad sums one channel's load across all servers (needed by
// Algorithm 1, which reasons about whole channels even when replicated).
func TotalChannelLoad(loads []ServerLoad, channel string) ChannelLoad {
	var total ChannelLoad
	for _, s := range loads {
		cl, ok := s.Channels[channel]
		if !ok {
			continue
		}
		total.Publishers += cl.Publishers
		total.Publications += cl.Publications
		total.Subscribers += cl.Subscribers
		total.MessagesSent += cl.MessagesSent
		total.BytesIn += cl.BytesIn
		total.BytesOut += cl.BytesOut
	}
	return total
}
