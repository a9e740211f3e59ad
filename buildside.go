package hashjoin

import (
	"context"
	"fmt"

	"hashjoin/internal/engine"
	"hashjoin/internal/native"
	"hashjoin/internal/sched"
)

// BuildSide is a hash table prepared once over a relation and probed
// many times: the native join's build phase, hoisted out of the query.
// The handle is immutable after PrepareBuildSide returns — probing
// never mutates it — so any number of concurrent RunPipelineContext
// calls may share one BuildSide via WithBuildSide. The rows live on
// the Go heap, outside the Env's arena, so the handle stays valid
// across the service's quiescent window reclamations; it is released
// by dropping the last reference.
//
// A BuildSide snapshots the relation at preparation time: tuples
// appended afterwards are not visible to probes through it.
type BuildSide struct {
	env *Env
	rel *Relation
	bs  *native.BuildSide
}

// Rows returns the number of build tuples in the table.
func (b *BuildSide) Rows() int { return b.bs.NRows() }

// Bytes returns the heap footprint of the row table, in bytes.
func (b *BuildSide) Bytes() int { return b.bs.Bytes() }

// PrepareBuildSide builds the native hash table over build once, for
// reuse across queries via WithBuildSide. The build is concurrent:
// morsel workers serialize disjoint page ranges of the relation into
// the row slab and publish each row into the shared slot directory
// with lock-free CAS, in one pass. The table is never handed back for
// recycling the way a query's own is: a prepared side has concurrent
// probers the engine cannot see, so it lives until its last reference
// is dropped. WithPipelineWorkers bounds the workers (default
// GOMAXPROCS); WithPipelineScheme and WithPipelineParams select the
// directory-prefetching strategy for the insert loop; WithTenant and
// WithTenantWeight label the work for a service Env, where the build
// is admitted like a query and runs on the shared, fairly scheduled
// pool. Other pipeline options do not apply here.
//
// The relation must have a fixed-width schema with the leading uint32
// join key (every schema NewRelation makes qualifies).
func (e *Env) PrepareBuildSide(ctx context.Context, build *Relation, opts ...PipelineOption) (b *BuildSide, err error) {
	if build.env != e {
		panic("hashjoin: relation belongs to a different Env")
	}
	pc := pipelineConfig{engine: EngineNative, scheme: Group, fanout: 1}
	for _, o := range opts {
		o(&pc)
	}
	if pc.engine != EngineNative {
		return nil, fmt.Errorf("hashjoin: PrepareBuildSide requires the native engine")
	}
	rel := build.rel
	if rel.Schema.HasVar() || rel.Schema.FixedWidth() < 4 {
		return nil, fmt.Errorf("hashjoin: PrepareBuildSide requires a fixed-width schema with a leading uint32 key")
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}

	// On a service Env the build is admitted like a query: it reads the
	// relation (so it must not interleave with an exclusive durable
	// load) and its morsels run on the shared pool under the tenant's
	// weight. The table itself is Go heap, so the granted scratch
	// window stays at the admission floor.
	var pool native.Pool
	if e.svc != nil {
		g, aerr := e.svc.Admit(ctx, sched.Request{
			Tenant: pc.tenant, Weight: pc.weight, Planned: pc.planned,
		})
		if aerr != nil {
			return nil, aerr
		}
		defer func() { g.Release(err) }()
		pool = e.svc.Pool()
	}

	bs, err := native.BuildRelation(rel, rel.Schema.FixedWidth(), native.BuildConfig{
		Scheme:  engine.NativeScheme(pc.scheme),
		G:       pc.params.G,
		D:       pc.params.D,
		Workers: pc.workers,
		Pool:    pool,
		Tenant:  pc.tenant,
		Weight:  pc.weight,
	})
	if err != nil {
		return nil, err
	}
	return &BuildSide{env: e, rel: build, bs: bs}, nil
}
