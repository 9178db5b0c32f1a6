// Package hashring implements consistent hashing with virtual nodes.
//
// Dynamoth uses consistent hashing in two roles (paper §I, §II-C):
//
//   - as the fallback mapping for channels that the current plan does not
//     mention (bootstrap, newly created channels, expired client plan
//     entries), and
//   - as the baseline load-balancing strategy that Experiment 2 compares
//     Dynamoth against.
//
// Each server owns a configurable number of virtual identifiers placed on a
// 64-bit ring by FNV-1a hashing; a channel maps to the server owning the
// first identifier at or clockwise of the channel's hash. The mapping is
// deterministic across processes, which the protocol depends on: a client and
// the dispatcher of a channel's "consistent-hash home" server must agree on
// where an unmapped channel lives.
package hashring

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the number of ring positions per server when the
// caller does not specify one. More virtual nodes smooth the key distribution
// at the cost of memory and O(log n) lookups over a larger ring.
const DefaultVirtualNodes = 128

type vnode struct {
	hash   uint64
	server string
}

// Ring is a consistent-hash ring. It is safe for concurrent use.
// The zero value is an empty ring with DefaultVirtualNodes per server.
type Ring struct {
	mu       sync.RWMutex
	vnodes   []vnode // sorted by hash
	servers  map[string]struct{}
	replicas int
}

// New creates a ring with the given servers. replicas is the number of
// virtual nodes per server; non-positive selects DefaultVirtualNodes.
func New(replicas int, servers ...string) *Ring {
	if replicas <= 0 {
		replicas = DefaultVirtualNodes
	}
	r := &Ring{
		servers:  make(map[string]struct{}, len(servers)),
		replicas: replicas,
	}
	for _, s := range servers {
		r.addLocked(s)
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
	return r
}

// Add inserts a server into the ring. Adding an existing server is a no-op.
func (r *Ring) Add(server string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.servers[server]; ok {
		return
	}
	r.addLocked(server)
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
}

func (r *Ring) addLocked(server string) {
	if _, ok := r.servers[server]; ok {
		return
	}
	if r.replicas == 0 {
		r.replicas = DefaultVirtualNodes
	}
	if r.servers == nil {
		r.servers = make(map[string]struct{})
	}
	r.servers[server] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.vnodes = append(r.vnodes, vnode{
			hash:   hashKey(server + "#" + strconv.Itoa(i)),
			server: server,
		})
	}
}

// Lookup returns the server responsible for key, or "" if the ring is empty.
func (r *Ring) Lookup(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.vnodes) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0
	}
	return r.vnodes[i].server
}

// LookupN returns the first n distinct servers clockwise of key's position.
// Fewer are returned if the ring holds fewer than n servers.
func (r *Ring) LookupN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.vnodes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.servers) {
		n = len(r.servers)
	}
	h := hashKey(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.vnodes) && len(out) < n; i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if _, dup := seen[v.server]; dup {
			continue
		}
		seen[v.server] = struct{}{}
		out = append(out, v.server)
	}
	return out
}

// Servers returns the current server set in unspecified order.
func (r *Ring) Servers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.servers))
	for s := range r.servers {
		out = append(out, s)
	}
	return out
}

// Len returns the number of servers in the ring.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.servers)
}

// Contains reports whether server is in the ring.
func (r *Ring) Contains(server string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.servers[server]
	return ok
}

// Clone returns an independent copy of the ring.
func (r *Ring) Clone() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Ring{
		vnodes:   append([]vnode(nil), r.vnodes...),
		servers:  make(map[string]struct{}, len(r.servers)),
		replicas: r.replicas,
	}
	for s := range r.servers {
		c.servers[s] = struct{}{}
	}
	return c
}

// String summarizes the ring for debugging.
func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("hashring{servers=%d vnodes=%d}", len(r.servers), len(r.vnodes))
}

// hashKey hashes a key to a 64-bit ring position using FNV-1a followed by a
// splitmix64 finalizer. FNV alone distributes the short, similar virtual-node
// keys ("s1#0", "s1#1", ...) poorly around the ring; the finalizer's
// avalanche fixes the spread while keeping the mapping fully deterministic.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never errors
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Steele et al., "Fast Splittable
// Pseudorandom Number Generators").
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
