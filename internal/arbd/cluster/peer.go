package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"busarb/internal/arbd/codec"
	"busarb/internal/arbd/wire"
)

// peer is the pooled binary-protocol connection to one other cluster
// member: every forward to that member multiplexes over one
// wire.Conn, dialed on the first forward and redialed after a tear.
//
// sem is the bounded forward queue: at most cap(sem) forwards may be
// in flight to the member at once. A full queue fails fast with a 503
// instead of buffering without bound — the same pushback the daemon's
// own MaxQueue applies to local waiters.
type peer struct {
	name string
	conn *wire.Conn
	sem  chan struct{}
}

func newPeer(name, addr string, maxInflight int, dialTimeout time.Duration) *peer {
	return &peer{
		name: name,
		conn: wire.NewConn(strings.TrimPrefix(addr, "tcp://"), dialTimeout),
		sem:  make(chan struct{}, maxInflight),
	}
}

// call forwards one frame to the member and waits for its reply. The
// reply is always terminal (grant, released, or error); crossed
// reports whether the frame reached the wire — sheds (full queue,
// failed dial or write) answer locally and count toward the shed
// metric, not the forward latency window.
func (p *peer) call(ctx context.Context, f *codec.Frame) (rep wire.Msg, crossed bool) {
	select {
	case p.sem <- struct{}{}:
	default:
		// Queue full: shed rather than buffer. 503 tells the client the
		// same thing the daemon's own overload path would.
		return wire.ErrorMsg(503, fmt.Sprintf("cluster: forward queue to %s full", p.name)), false
	}
	defer func() { <-p.sem }()

	rep, err := p.conn.Call(ctx, f)
	switch {
	case err == nil:
		return rep, true
	case errors.Is(err, wire.ErrAbandoned):
		// The origin client is gone (or the node is closing); nobody is
		// left to read the owner's answer.
		return wire.ErrorMsg(408, fmt.Sprintf("cluster: forward to %s abandoned: %v", p.name, err)), true
	case errors.Is(err, wire.ErrTorn):
		// 503 so the origin client can retry another member.
		return wire.ErrorMsg(503, fmt.Sprintf("cluster: forward to %s failed: %v", p.name, err)), true
	}
	return wire.ErrorMsg(503, fmt.Sprintf("cluster: owner %s unreachable: %v", p.name, err)), false
}
