package anytime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilCtlIsUnlimited(t *testing.T) {
	var c *Ctl
	if c.Stopped() {
		t.Fatal("nil Ctl reports stopped")
	}
	if !c.Charge(1<<40, 1<<40) {
		t.Fatal("nil Ctl refused work")
	}
	if !c.Check() {
		t.Fatal("nil Ctl failed Check")
	}
	if c.Err() != nil {
		t.Fatal("nil Ctl has an error")
	}
	if c.Sub(0.5) != nil {
		t.Fatal("nil Ctl spawned a non-nil child")
	}
	c.Stop("ignored")
	c.Absorb(nil)
}

func TestCancelledContextStopsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(ctx, Budget{})
	if !c.Stopped() {
		t.Fatal("controller did not notice the already-cancelled context")
	}
	if err := c.Err(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Err() = %v, want ErrInterrupted", err)
	}
}

func TestConfigBudget(t *testing.T) {
	c := New(context.Background(), Budget{MaxConfigs: 10000})
	if !c.Charge(4096, 0) || !c.Charge(4096, 0) {
		t.Fatal("stopped before the budget was reached")
	}
	if c.Charge(4096, 0) {
		t.Fatal("kept running past the configuration budget")
	}
	if !c.Stopped() || c.Reason() == "" {
		t.Fatal("no stop reason recorded")
	}
	if c.Configs() != 3*4096 {
		t.Fatalf("Configs() = %d, want %d", c.Configs(), 3*4096)
	}
}

func TestMaxFlowCallBudget(t *testing.T) {
	c := New(context.Background(), Budget{MaxMaxFlowCalls: 100})
	if c.Charge(10, 200) {
		t.Fatal("kept running past the max-flow call budget")
	}
}

func TestSoftDeadline(t *testing.T) {
	c := New(context.Background(), Budget{SoftDeadline: time.Nanosecond})
	time.Sleep(time.Millisecond)
	if c.Charge(1, 0) {
		t.Fatal("kept running past the soft deadline")
	}
}

func TestStopReasonFirstWins(t *testing.T) {
	c := New(context.Background(), Budget{})
	c.Stop("first")
	c.Stop("second")
	if c.Reason() != "first" {
		t.Fatalf("Reason() = %q, want first", c.Reason())
	}
}

func TestSubSlicesRemainingBudget(t *testing.T) {
	c := New(context.Background(), Budget{MaxConfigs: 1000})
	c.Charge(500, 0)
	child := c.Sub(0.5)
	if child == nil {
		t.Fatal("no child controller")
	}
	// Remaining 500, half of it ≈ 250 (+1 rounding headroom).
	if child.Charge(300, 0) {
		t.Fatal("child ignored its slice of the budget")
	}
	if c.Stopped() {
		t.Fatal("child exhaustion must not stop the parent")
	}
	c.Absorb(child)
	if c.Configs() != 800 {
		t.Fatalf("parent Configs() = %d after Absorb, want 800", c.Configs())
	}
}

func TestSubInheritsStop(t *testing.T) {
	c := New(context.Background(), Budget{})
	c.Stop("parent stopped")
	child := c.Sub(1)
	if !child.Stopped() {
		t.Fatal("child of a stopped parent is running")
	}
}

func TestBudgetValidate(t *testing.T) {
	if err := (Budget{}).Validate(); err != nil {
		t.Fatalf("zero budget rejected: %v", err)
	}
	if err := (Budget{MaxMaxFlowCalls: -1}).Validate(); err == nil {
		t.Fatal("negative MaxMaxFlowCalls accepted")
	}
	if err := (Budget{SoftDeadline: -time.Second}).Validate(); err == nil {
		t.Fatal("negative SoftDeadline accepted")
	}
}

func TestRecoverInto(t *testing.T) {
	c := New(context.Background(), Budget{})
	var err error
	func() {
		cur := uint64(7)
		defer RecoverInto(&err, c, "test worker", &cur)
		cur = 42
		panic("boom")
	}()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("recovered error %v is not a PanicError", err)
	}
	if pe.Config != 42 || pe.Where != "test worker" {
		t.Fatalf("PanicError = %+v", pe)
	}
	if !c.Stopped() {
		t.Fatal("panic did not stop the controller")
	}
}

func TestRun(t *testing.T) {
	// Every item runs exactly once.
	var ran [100]atomic.Int32
	if err := Run(nil, 3, len(ran), "test worker", func(i int, _ *uint64) { ran[i].Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("item %d ran %d times", i, n)
		}
	}

	// Once the controller stops, the items not yet started are skipped.
	c := New(context.Background(), Budget{})
	var started atomic.Int32
	if err := Run(c, 1, 100, "test worker", func(i int, _ *uint64) {
		started.Add(1)
		if i == 9 {
			c.Stop("enough")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if started.Load() != 10 {
		t.Fatalf("%d items started after a stop at item 9", started.Load())
	}

	// Items 0 and 1 both panic: the error returned is item 0's, and no
	// later item starts, even without a controller to stop.
	var barrier sync.WaitGroup
	barrier.Add(2)
	started.Store(0)
	err := Run(nil, 2, 10, "test worker", func(i int, cur *uint64) {
		started.Add(1)
		barrier.Done()
		barrier.Wait()
		*cur = uint64(100 + i)
		panic("boom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Config != 100 {
		t.Fatalf("err = %v, want item 0's PanicError at configuration 100", err)
	}
	if started.Load() != 2 {
		t.Fatalf("%d items started after two panics", started.Load())
	}
}
