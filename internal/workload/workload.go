// Package workload generates the synthetic inputs used by the analytic
// simulator and the experimental cluster: open-loop Poisson query
// arrivals, Zipf-distributed search terms, synthetic file metadata (the
// PPS corpus), and calibrated server speed profiles standing in for the
// heterogeneous Hen/EC2 hardware of Table 7.1.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Poisson generates exponentially distributed inter-arrival gaps for an
// open-loop arrival process with the given mean rate (events/second).
type Poisson struct {
	rate float64
	rng  *rand.Rand
}

// NewPoisson returns a Poisson arrival process. rate must be positive.
func NewPoisson(rate float64, rng *rand.Rand) *Poisson {
	if rate <= 0 {
		panic(fmt.Sprintf("workload: non-positive Poisson rate %v", rate))
	}
	return &Poisson{rate: rate, rng: rng}
}

// Next returns the gap to the next arrival.
func (p *Poisson) Next() time.Duration {
	gap := p.rng.ExpFloat64() / p.rate
	return time.Duration(gap * float64(time.Second))
}

// NextSeconds returns the gap in seconds (for the virtual-time simulator).
func (p *Poisson) NextSeconds() float64 { return p.rng.ExpFloat64() / p.rate }

// Zipf draws ranks 1..n with P(k) proportional to 1/k^s, the classic
// model for search-term popularity.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 1.
func NewZipf(n uint64, s float64, rng *rand.Rand) *Zipf {
	if s <= 1 {
		// rand.Zipf requires s > 1; nudge to the boundary-compatible value.
		s = 1.0001
	}
	return &Zipf{z: rand.NewZipf(rng, s, 1, n-1)}
}

// Draw returns a rank in [0, n).
func (z *Zipf) Draw() uint64 { return z.z.Uint64() }

// FileMeta is a plaintext description of one stored file: the input to
// PPS metadata encryption and the unit the distributed search matches.
type FileMeta struct {
	Path     string
	Size     int64     // bytes
	Modified time.Time // last modification
	Keywords []string  // most discriminating content keywords (≤ ~50)
}

// Corpus generates a deterministic synthetic home-directory-like corpus,
// mirroring the author's-home-directory dataset used in §5.7.
type Corpus struct {
	rng      *rand.Rand
	vocab    []string
	zipf     *Zipf
	dirDepth int
	epoch    time.Time
}

// NewCorpus returns a corpus generator with a vocabulary of vocabSize
// distinct words drawn under a Zipf popularity law.
func NewCorpus(vocabSize int, seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, vocabSize)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%05d", i)
	}
	return &Corpus{
		rng:      rng,
		vocab:    vocab,
		zipf:     NewZipf(uint64(vocabSize), 1.2, rng),
		dirDepth: 6,
		epoch:    time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC),
	}
}

// Word draws a vocabulary word under the popularity law.
func (c *Corpus) Word() string { return c.vocab[c.zipf.Draw()] }

// RareWord draws uniformly from the low-popularity half of the
// vocabulary, for queries that should match few or no documents.
func (c *Corpus) RareWord() string {
	half := len(c.vocab) / 2
	return c.vocab[half+c.rng.Intn(len(c.vocab)-half)]
}

// Generate produces n file metadata records.
func (c *Corpus) Generate(n int) []FileMeta {
	out := make([]FileMeta, n)
	for i := range out {
		out[i] = c.one(i)
	}
	return out
}

func (c *Corpus) one(i int) FileMeta {
	depth := 1 + c.rng.Intn(c.dirDepth)
	path := ""
	for d := 0; d < depth; d++ {
		path += "/" + c.Word()
	}
	path += fmt.Sprintf("/file%07d.%s", i, []string{"txt", "pdf", "jpg", "go", "c"}[c.rng.Intn(5)])
	nkw := 5 + c.rng.Intn(45) // up to ~50 keywords per §5.5
	kws := make([]string, 0, nkw)
	seen := map[string]bool{}
	for len(kws) < nkw {
		w := c.Word()
		if !seen[w] {
			seen[w] = true
			kws = append(kws, w)
		}
	}
	// Log-normal-ish file sizes: most small, some huge.
	size := int64(math.Exp(c.rng.NormFloat64()*2+9)) + 1 // median ~8KB
	mod := c.epoch.Add(time.Duration(c.rng.Int63n(int64(365 * 24 * time.Hour))))
	return FileMeta{Path: path, Size: size, Modified: mod, Keywords: kws}
}

// QueryStream draws query ranks under a Zipf popularity law over a
// universe of n distinct queries — the repeat-traffic model behind the
// frontend result cache (docs/ECONOMICS.md). At the web-search-like
// s = 1.0 roughly a third of an infinite stream repeats a recently-seen
// rank, which is what makes result caching pay.
type QueryStream struct {
	z *Zipf
}

// NewQueryStream returns a Zipf(s) query-rank sampler over [0, n).
func NewQueryStream(n uint64, s float64, rng *rand.Rand) *QueryStream {
	return &QueryStream{z: NewZipf(n, s, rng)}
}

// Next draws the next query rank in [0, n).
func (q *QueryStream) Next() uint64 { return q.z.Draw() }

// TenantMix draws tenant ids for a multi-tenant query stream: one "hot"
// tenant emits hotShare of all queries and the remainder spreads
// uniformly over n-1 well-behaved tenants — the adversarial shape the
// per-tenant admission quotas must isolate (a hot tenant at 10x offered
// load must be shed before its neighbours are).
type TenantMix struct {
	rng      *rand.Rand
	n        int
	hotShare float64
}

// NewTenantMix returns a mix over n >= 1 tenants. hotShare is clamped to
// [0, 1]; with n == 1 every draw is the hot tenant.
func NewTenantMix(n int, hotShare float64, rng *rand.Rand) *TenantMix {
	if n < 1 {
		n = 1
	}
	if hotShare < 0 {
		hotShare = 0
	}
	if hotShare > 1 {
		hotShare = 1
	}
	return &TenantMix{rng: rng, n: n, hotShare: hotShare}
}

// Hot returns the hot tenant's id.
func (m *TenantMix) Hot() string { return "tenant-0" }

// Next draws the next query's tenant id.
func (m *TenantMix) Next() string {
	if m.n == 1 || m.rng.Float64() < m.hotShare {
		return m.Hot()
	}
	return fmt.Sprintf("tenant-%d", 1+m.rng.Intn(m.n-1))
}

// ServerModel is a hardware profile, mirroring Table 7.1. Speeds are in
// metadata objects matched per second, calibrated from the §5.7
// single-machine measurements (Dell 1950: ~290k obj/s disk-bound,
// ~2.5M obj/s from memory with 4 match threads).
type ServerModel struct {
	Name        string
	DiskSpeed   float64 // objects/s when disk-bound
	MemSpeed    float64 // objects/s when CPU-bound from memory
	Cores       int
	IdleWatts   float64
	ActiveWatts float64
}

// The four server models of Table 7.1.
var (
	Dell1950 = ServerModel{Name: "Dell 1950", DiskSpeed: 290e3, MemSpeed: 2.5e6, Cores: 4, IdleWatts: 210, ActiveWatts: 320}
	Dell2950 = ServerModel{Name: "Dell 2950", DiskSpeed: 340e3, MemSpeed: 3.1e6, Cores: 8, IdleWatts: 230, ActiveWatts: 375}
	Dell1850 = ServerModel{Name: "Dell 1850", DiskSpeed: 220e3, MemSpeed: 1.2e6, Cores: 2, IdleWatts: 190, ActiveWatts: 290}
	SunX4100 = ServerModel{Name: "Sun X4100", DiskSpeed: 200e3, MemSpeed: 1.0e6, Cores: 2, IdleWatts: 180, ActiveWatts: 270}
)

// HenFleet returns the per-node server models of an n-node testbed in
// the rough mix of the 50-server Hen deployment (§7.1): a majority of
// Dell 1950s with a tail of older, slower machines.
func HenFleet(n int, rng *rand.Rand) []ServerModel {
	out := make([]ServerModel, n)
	for i := range out {
		switch x := rng.Float64(); {
		case x < 0.55:
			out[i] = Dell1950
		case x < 0.70:
			out[i] = Dell2950
		case x < 0.85:
			out[i] = Dell1850
		default:
			out[i] = SunX4100
		}
	}
	return out
}

// UniformSpeeds returns n identical speeds (objects/s).
func UniformSpeeds(n int, speed float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = speed
	}
	return out
}

// LogNormalSpeeds returns n speeds with the given median and sigma of
// the underlying normal, modelling server heterogeneity (Fig 6.4 sweeps
// sigma).
func LogNormalSpeeds(n int, median, sigma float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = median * math.Exp(rng.NormFloat64()*sigma)
	}
	return out
}

// PerturbSpeeds returns a copy of speeds with multiplicative error of
// ±frac (uniform), modelling the speed-estimation error of Fig 6.5.
func PerturbSpeeds(speeds []float64, frac float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(speeds))
	for i, s := range speeds {
		out[i] = s * (1 + (rng.Float64()*2-1)*frac)
		if out[i] <= 0 {
			out[i] = s * 0.01
		}
	}
	return out
}
