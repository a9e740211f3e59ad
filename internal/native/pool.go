package native

import (
	"sync"
	"sync/atomic"
)

// The morsel execution contract, factored out of joinPairs so a join's
// partition-pair work can run either on its own goroutines (localPool,
// the single-query behavior) or on a process-wide shared pool that
// interleaves morsels from many concurrent joins (internal/sched.Pool).
// The join supplies the work as data — morsel count, slot count, a Run
// function — and the pool supplies the goroutines.

// MorselJob is one join's batch of independent morsels (partition
// pairs). Run(slot, morsel) executes one morsel using the per-slot
// state (pairJoiner) identified by slot; it must be safe to call
// concurrently for distinct slots.
//
// A Pool executing the job guarantees:
//   - each morsel in [0, N) runs at most once;
//   - a given slot in [0, Slots) never has two Run calls in flight;
//   - after any Run returns an error, no new morsel is issued;
//   - Do returns the first error once every in-flight Run has finished,
//     so the job's slot state is quiescent when Do returns.
//
// Morsels a pool never issued (error or cancellation cut the job short)
// are simply not run; the join layer reports partial progress through
// its own accounting.
type MorselJob struct {
	// Tenant and Weight identify the owning query for fair scheduling;
	// a shared pool interleaves claims across jobs by weighted round-
	// robin. localPool ignores them.
	Tenant string
	Weight int

	N     int // morsels to execute
	Slots int // distinct slot states available; >= 1

	Run func(slot, morsel int) error
}

// Pool executes morsel jobs. Implementations must honor the contract
// documented on MorselJob.
type Pool interface {
	Do(job *MorselJob) error
}

// RunMorsels executes job on pool, or on goroutines of its own when
// pool is nil.
func RunMorsels(pool Pool, job *MorselJob) error {
	if pool == nil {
		pool = localPool{}
	}
	return pool.Do(job)
}

// localPool is the default Pool: one goroutine per slot, dedicated to
// this job — the original per-query fan-out. With one slot the job runs
// inline on the caller's goroutine.
type localPool struct{}

func (localPool) Do(job *MorselJob) error {
	if job.N <= 0 {
		return nil
	}
	if job.Slots <= 1 {
		for i := 0; i < job.N; i++ {
			if err := job.Run(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, job.Slots) // written only by the owning slot
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < job.Slots; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= job.N {
					return
				}
				if err := job.Run(w, i); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
