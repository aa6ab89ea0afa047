package workload

// scale.go grows the bibliographic generator to 10^5-10^6 entities for
// the sharded-resolution experiments. The small generator (workload.go)
// keeps Figure 1's fixed vocabulary — six institutions, three years —
// which is faithful at n≈30 but makes the low-selectivity joins
// (Author on institution, Conference on year) quadratic at scale and
// couples the whole instance into one similarity component. The scale
// generator instead grows every join key with the instance:
//
//   - institutions scale as ~authors/5, so σ2's join on institution
//     stays constant fan-in;
//   - publication years scale as ~conferences/4, bounding σ1's join;
//   - authors are grouped into communities, papers draw their authors
//     and their venue from their own community, and venues are
//     partitioned among communities, so similarity components — and
//     therefore shards — stay community-bounded instead of percolating
//     into one giant component;
//   - duplication is Zipf-skewed: most entities have a single
//     reference, a heavy tail has up to MaxDup+1, mirroring the skewed
//     duplicate distributions of real ER benchmarks.
//
// The generator is deterministic in the seed: a single sequential rng
// drives everything, so identical configs produce byte-identical
// databases regardless of GOMAXPROCS or test parallelism.

import (
	"fmt"
	"math/rand"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/rules"
	"repro/internal/sim"
)

// ScaleConfig controls the large generator. Entities counts real-world
// objects (references are 1..MaxDup+1 per object, Zipf-skewed); the
// split is 45% authors, 45% papers, 10% conferences.
type ScaleConfig struct {
	Seed     int64
	Entities int // real-world entities; references are ~1.3x this
	// MaxDup caps the extra references per entity; the count is drawn
	// from a Zipf distribution so most entities have none.
	MaxDup int
	// ZipfS is the Zipf skew exponent (must be > 1; larger = fewer
	// duplicates).
	ZipfS    float64
	TypoRate float64
	// CommunitySize is the number of authors per community. Papers and
	// venues stay inside their community, which bounds the size of
	// coupled components independent of n.
	CommunitySize int
	// DirtyWrote injects δ1 violations exactly as in the small
	// generator (see Config.DirtyWrote).
	DirtyWrote float64
}

// DefaultScaleConfig returns the configuration used by the E20
// experiment: Zipf(2.5) duplication capped at 3 extras (so ~80% of
// entities are singletons and per-component solution lattices stay
// small), communities of 8 authors.
func DefaultScaleConfig(seed int64, entities int) ScaleConfig {
	return ScaleConfig{
		Seed:          seed,
		Entities:      entities,
		MaxDup:        3,
		ZipfS:         2.5,
		TypoRate:      0.7,
		CommunitySize: 8,
		DirtyWrote:    0.1,
	}
}

// GenerateScale builds a large dataset. It shares the schema,
// specification, similarity predicate and ground-truth bookkeeping with
// Generate but scales every join key with the instance.
func GenerateScale(cfg ScaleConfig) (*Dataset, error) {
	if cfg.Entities < 40 {
		return nil, fmt.Errorf("workload: scale config needs >= 40 entities, got %d (use Generate for small instances)", cfg.Entities)
	}
	if cfg.CommunitySize < 2 {
		return nil, fmt.Errorf("workload: community size %d too small", cfg.CommunitySize)
	}
	if cfg.MaxDup > 0 && cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("workload: Zipf exponent must be > 1, got %v", cfg.ZipfS)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	nAuthors := cfg.Entities * 45 / 100
	nConfs := cfg.Entities / 10
	nPapers := cfg.Entities - nAuthors - nConfs
	if nConfs < 1 {
		nConfs = 1
	}
	nComm := nAuthors / cfg.CommunitySize
	if nComm < 1 {
		nComm = 1
	}
	nInst := nAuthors / 5
	if nInst < 1 {
		nInst = 1
	}

	s := db.NewSchema()
	s.MustAdd("Author", "id", "email", "institution")
	s.MustAdd("Paper", "id", "title", "cID")
	s.MustAdd("Wrote", "pID", "aID", "pos")
	s.MustAdd("Conference", "id", "name", "year")
	s.MustAdd("Chair", "cID", "aID")
	s.MustAdd("CorrAuth", "pID", "aID")
	d := db.New(s, nil)

	randWord := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}

	// dups draws the extra-reference count for one entity: Zipf-skewed,
	// so most entities contribute a single reference and a heavy tail
	// contributes up to MaxDup+1.
	var zipf *rand.Zipf
	if cfg.MaxDup > 0 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.MaxDup))
	}
	dups := func() int {
		if zipf == nil {
			return 0
		}
		return int(zipf.Uint64())
	}
	// Duplicate reference ids carry a random tail: a "_d1" counter
	// suffix would leave "p123_d1" and "p124_d1" one edit apart, and an
	// all-pairs similarity closure would chain every duplicated entity's
	// references into one giant component.
	mkRefs := func(prefix string, i int) []string {
		refs := []string{fmt.Sprintf("%s%d", prefix, i)}
		for k := dups(); k > 0; k-- {
			refs = append(refs, fmt.Sprintf("%s%d_%s", prefix, i, randWord(4)))
		}
		return refs
	}

	communityOf := func(author int) int { return author % nComm }

	// Institution names are random words, not numbered labels: "inst11"
	// and "inst12" sit one edit apart and would chain every institution
	// into a single similarity component under an all-pairs closure.
	instNames := make([]string, nInst)
	for i := range instNames {
		instNames[i] = randWord(10)
	}

	// Authors. Institution fan-in stays ~5 authors regardless of n, so
	// σ2's join on institution enumerates O(n) candidate pairs total.
	authors := make([]entity, nAuthors)
	authorRefs := 0
	for i := range authors {
		authors[i] = entity{refs: mkRefs("a", i)}
		inst := instNames[i%nInst]
		base := fmt.Sprintf("%s@%s.example", randWord(10), inst)
		for k, r := range authors[i].refs {
			em := base
			if k > 0 && rng.Float64() < cfg.TypoRate {
				em = typo(rng, base)
			}
			d.MustInsert("Author", r, em, inst)
		}
		authorRefs += len(authors[i].refs)
	}

	// Conferences, partitioned among communities (conference j serves
	// community j%nComm) with scaled-out years so σ1's join on year
	// stays constant fan-in. The chair comes from a different community
	// than the venue serves, so δ3 never fires in the ground truth and
	// chair references never couple venue components across
	// communities.
	confs := make([]entity, nConfs)
	confRefs := 0
	confsOfComm := make([][]int, nComm)
	for j := range confs {
		confs[j] = entity{refs: mkRefs("c", j)}
		comm := j % nComm
		confsOfComm[comm] = append(confsOfComm[comm], j)
		year := fmt.Sprintf("y%d", j/4)
		base := fmt.Sprintf("%s %s", randWord(9), randWord(9))
		chair := rng.Intn(nAuthors)
		if nComm > 1 && communityOf(chair) == comm {
			chair = (chair + 1) % nAuthors // next author is in the next community
		}
		for k, r := range confs[j].refs {
			nm := base
			if k > 0 && rng.Float64() < cfg.TypoRate {
				nm = typo(rng, base)
			}
			d.MustInsert("Conference", r, nm, year)
			ch := authors[chair]
			d.MustInsert("Chair", r, ch.refs[k%len(ch.refs)])
		}
		confRefs += len(confs[j].refs)
	}

	// Papers: authors and venue drawn from the paper's own community.
	papers := make([]entity, nPapers)
	paperRefs := 0
	for i := range papers {
		papers[i] = entity{refs: mkRefs("p", i)}
		comm := i % nComm
		pool := confsOfComm[comm]
		conf := pool[rng.Intn(len(pool))]
		// Community author block [comm, comm+nComm, comm+2*nComm, ...].
		commSize := (nAuthors - comm + nComm - 1) / nComm
		nAuth := 1 + rng.Intn(3)
		if nAuth > commSize {
			nAuth = commSize
		}
		var auth []int
		for len(auth) < nAuth {
			a := comm + rng.Intn(commSize)*nComm
			seen := false
			for _, x := range auth {
				if x == a {
					seen = true
				}
			}
			if !seen {
				auth = append(auth, a)
			}
		}
		base := fmt.Sprintf("%s %s %s", randWord(8), randWord(8), randWord(8))
		for k, r := range papers[i].refs {
			tt := base
			if k > 0 && rng.Float64() < cfg.TypoRate {
				tt = typo(rng, base)
			}
			cref := confs[conf].refs[k%len(confs[conf].refs)]
			d.MustInsert("Paper", r, tt, cref)
			for pos, a := range auth {
				aref := authors[a].refs[k%len(authors[a].refs)]
				d.MustInsert("Wrote", r, aref, fmt.Sprintf("%d", pos+1))
				if len(authors[a].refs) > 1 && rng.Float64() < cfg.DirtyWrote {
					other := authors[a].refs[(k+1)%len(authors[a].refs)]
					d.MustInsert("Wrote", r, other, fmt.Sprintf("%d", pos+1))
				}
			}
			d.MustInsert("CorrAuth", r, authors[auth[0]].refs[k%len(authors[auth[0]].refs)])
		}
		paperRefs += len(papers[i].refs)
	}

	reg := sim.NewRegistry(sim.Threshold("approx", sim.NormalizedLevenshtein, 0.82))
	spec, err := rules.ParseSpec(SpecText, s, d.Interner(), reg)
	if err != nil {
		return nil, fmt.Errorf("workload: spec: %w", err)
	}

	truth := eqrel.New(d.Interner().Size())
	union := func(es []entity) {
		for _, e := range es {
			first, _ := d.Interner().Lookup(e.refs[0])
			for _, r := range e.refs[1:] {
				c, _ := d.Interner().Lookup(r)
				truth.Union(first, c)
			}
		}
	}
	union(authors)
	union(confs)
	union(papers)

	return &Dataset{
		Schema: s, DB: d, Sims: reg, Spec: spec, Truth: truth,
		AuthorRefs: authorRefs, PaperRefs: paperRefs, ConfRefs: confRefs,
	}, nil
}
