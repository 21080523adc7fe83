package main

import (
	"time"

	"anytime/internal/transport"
)

// timedTransport decorates one rank's TCP endpoint with wall timers around
// its collective calls. Within one Runner.Step (bracketed by beginStep and
// endStep) the runner makes exactly one boundary-data Exchange, followed by
// the convergence vote: a control Exchange gathering the votes at rank 0
// and the decision Broadcast. The first Exchange of a step is therefore
// counted as data and every later call of the step as vote. Calls outside
// a step (set-up, distance gathers) are not counted. Every other method,
// the liveness and step-gossip surfaces among them, is the endpoint's own,
// so the runner takes the same path as on the bare endpoint. It is used by
// its rank's goroutine alone.
type timedTransport struct {
	*transport.TCP
	steps  []stepComm // one per bracketed step
	inStep bool
}

// stepComm is one step's communication time as seen by one rank.
type stepComm struct {
	exchange, vote time.Duration
	sawData        bool
}

func (t *timedTransport) beginStep() {
	t.steps = append(t.steps, stepComm{})
	t.inStep = true
}

func (t *timedTransport) endStep() { t.inStep = false }

func (t *timedTransport) Exchange(out []transport.Message) ([]transport.Message, error) {
	start := time.Now()
	in, err := t.TCP.Exchange(out)
	t.count(time.Since(start), true)
	return in, err
}

func (t *timedTransport) Broadcast(root int, msg transport.Message) (*transport.Message, error) {
	start := time.Now()
	got, err := t.TCP.Broadcast(root, msg)
	t.count(time.Since(start), false)
	return got, err
}

func (t *timedTransport) count(d time.Duration, exchange bool) {
	if !t.inStep {
		return
	}
	s := &t.steps[len(t.steps)-1]
	if exchange && !s.sawData {
		s.sawData = true
		s.exchange += d
		return
	}
	s.vote += d
}
