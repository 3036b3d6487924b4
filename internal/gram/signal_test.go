package gram_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"infogram/internal/gram"
	"infogram/internal/job"
	"infogram/internal/scheduler"
	"infogram/internal/xrsl"
)

// parkedBackend runs every task until it is cancelled; its handles accept
// Suspend and Resume.
type parkedBackend struct{}

func (parkedBackend) Name() string { return "parked" }

func (parkedBackend) Submit(ctx context.Context, t scheduler.Task) (scheduler.Handle, error) {
	return &parkedHandle{done: make(chan struct{})}, nil
}

type parkedHandle struct {
	done chan struct{}
	once sync.Once
}

func (h *parkedHandle) Wait(ctx context.Context) (scheduler.Result, error) {
	select {
	case <-h.done:
		return scheduler.Result{}, context.Canceled
	case <-ctx.Done():
		return scheduler.Result{}, ctx.Err()
	}
}

func (h *parkedHandle) Cancel()        { h.once.Do(func() { close(h.done) }) }
func (h *parkedHandle) Suspend() error { return nil }
func (h *parkedHandle) Resume() error  { return nil }

// TestSignalReachesJobOnceActive suspends a job from inside the ACTIVE
// callback: a job reported ACTIVE must already have the running handles
// SIGNAL acts on.
func TestSignalReachesJobOnceActive(t *testing.T) {
	var m *gram.Manager
	suspended := make(chan error, 1)
	m = gram.NewManager(gram.ManagerConfig{
		Table:    job.NewTable("localhost"),
		Backends: gram.Backends{Exec: parkedBackend{}},
		Notify: gram.NotifierFunc(func(_ string, ev job.Event) {
			if ev.State == job.Active {
				suspended <- m.Signal(ev.Contact, "suspend")
			}
		}),
	})
	req := &xrsl.JobRequest{Executable: "/bin/parked", Count: 1, CallbackContact: "listener"}
	contact, err := m.Submit(context.Background(), req, job.Record{Spec: "&(executable=/bin/parked)"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-suspended:
		if err != nil {
			t.Fatalf("suspend as the job turned ACTIVE: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job never turned ACTIVE")
	}
	if rec, err := m.Table().Get(contact); err != nil || rec.State != job.Suspended {
		t.Fatalf("state after suspend = %v (%v)", rec.State, err)
	}
	if err := m.Cancel(contact); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, err := m.Table().Get(contact)
		if err == nil && rec.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled job never finished: %v (%v)", rec.State, err)
		}
		time.Sleep(time.Millisecond)
	}
}
