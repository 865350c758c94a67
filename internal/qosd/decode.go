package qosd

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"

	"bufqos/internal/jsonscan"
	"bufqos/internal/packet"
)

// maxDecisionBody bounds a decision request body. A /v1/batch entry is
// about 200 bytes, so 4 MiB holds some 20,000 of them: far more than
// qload (-batch 256 in qosd-smoke) or bench (64) send in one request.
// A longer body is answered 413 without being read to its end.
const maxDecisionBody = 4 << 20

// maxRestoreBody bounds a /v1/restore body. A snapshot's flow record is
// about 150 bytes, so 32 MiB holds some 200,000 flows; a longer body is
// answered 413 and restores nothing.
const maxRestoreBody = 32 << 20

// endpoint names the decision body a request carries.
type endpoint uint8

const (
	joinBody endpoint = iota
	batchBody
	leaveBody
	rerouteBody
)

// The members an op object may carry, per body: JoinRequest (and a
// /v1/batch "joins" entry), BatchOp, LeaveRequest, RerouteRequest.
const (
	memberOp = 1 << iota
	memberFlow
	memberLinks
	memberSpec

	joinMembers  = memberFlow | memberLinks | memberSpec
	batchMembers = memberOp | joinMembers
)

// opMembers is the members of each single-op body.
var opMembers = [...]uint8{
	joinBody:    joinMembers,
	leaveBody:   memberFlow,
	rerouteBody: memberFlow | memberLinks,
}

// wireOp is one decoded decision. Names are slices of the body or of
// the scanner's arena.
type wireOp struct {
	op    []byte // a batch op's "op" as sent: "" and "join" join
	flow  []byte
	links list // into request.links
	spec  packet.FlowSpec
}

// list is a decoded JSON array: elements [at, at+n) of one of the
// request's flat stores. encoding/json decodes a repeated key into the
// slice the earlier one filled, and an element given as null keeps what
// that slice's backing array held at its index, even past the end of a
// shorter array in between; [at+n, at+held) keeps those elements for
// the next repeat.
type list struct{ at, n, held int }

// request is one decision request's pooled scratch: the body, what it
// decodes to, and the answer.
type request struct {
	body  bytes.Buffer
	sc    jsonscan.Scanner
	ops   []wireOp
	links [][]byte // link names of every op
	joins list     // /v1/batch "joins"
	batch list     // /v1/batch "ops"
	route []int
	out   []byte // the answer
}

var requests = sync.Pool{New: func() any { return new(request) }}

// readRequest reads a decision body of at most maxDecisionBody bytes
// and decodes it; release the request when done with it.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, e endpoint) (*request, error) {
	req := requests.Get().(*request)
	req.body.Reset()
	_, err := req.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxDecisionBody))
	if err == nil {
		err = req.decode(e)
	}
	if err != nil {
		req.release()
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return req, nil
}

func (req *request) release() { requests.Put(req) }

// answer sends out, the answer written into req.out's storage, with its
// newline and status 200.
func (req *request) answer(w http.ResponseWriter, out []byte) {
	req.out = append(out, '\n')
	writeBody(w, http.StatusOK, req.out)
}

// decode reads the body in one pass. It accepts exactly the bodies
// json.Decoder with DisallowUnknownFields accepts into the endpoint's
// request type, decoding each to the same value, except that anything
// but white space after the value is an error.
func (req *request) decode(e endpoint) error {
	sc := &req.sc
	sc.Reset(req.body.Bytes())
	req.ops, req.links = req.ops[:0], req.links[:0]
	req.joins, req.batch = list{}, list{}
	var err error
	switch e {
	case batchBody:
		if sc.Null() {
			break
		}
		err = sc.Object(func(key []byte) error {
			switch {
			case jsonscan.Match(key, "joins"):
				return decodeList(sc, &req.ops, &req.joins, func(o *wireOp) error {
					return req.decodeOp(o, joinMembers)
				})
			case jsonscan.Match(key, "ops"):
				return decodeList(sc, &req.ops, &req.batch, func(o *wireOp) error {
					return req.decodeOp(o, batchMembers)
				})
			}
			return unknownField(key)
		})
	default:
		req.ops = append(req.ops, wireOp{})
		err = req.decodeOp(&req.ops[0], opMembers[e])
	}
	if err != nil {
		return err
	}
	return sc.End()
}

// decodeOp decodes an op object, or null, into o: members it sets
// replace o's, the rest keep their value.
func (req *request) decodeOp(o *wireOp, members uint8) error {
	sc := &req.sc
	if sc.Null() {
		return nil
	}
	return sc.Object(func(key []byte) error {
		switch {
		case members&memberFlow != 0 && jsonscan.Match(key, "flow"):
			return req.str(&o.flow)
		case members&memberOp != 0 && jsonscan.Match(key, "op"):
			return req.str(&o.op)
		case members&memberLinks != 0 && jsonscan.Match(key, "links"):
			return decodeList(sc, &req.links, &o.links, func(name *[]byte) error {
				var err error
				*name, err = sc.String()
				return err
			})
		case members&memberSpec != 0 && jsonscan.Match(key, "spec"):
			spec, err := packet.ScanFlowSpec(sc)
			if err != nil {
				return fmt.Errorf("flow spec: %w", err)
			}
			o.spec = spec
			return nil
		}
		return unknownField(key)
	})
}

// str decodes a string member into *dst; null leaves *dst as it is.
func (req *request) str(dst *[]byte) error {
	if req.sc.Null() {
		return nil
	}
	v, err := req.sc.String()
	if err == nil {
		*dst = v
	}
	return err
}

// decodeList decodes an array, or null, into *l, appending its elements
// to store. Element i starts from the list's element i as encoding/json
// would find it in the slice — decode reads null as leaving it there —
// and a null or empty array resets the list.
func decodeList[T any](sc *jsonscan.Scanner, store *[]T, l *list, decode func(*T) error) error {
	if sc.Null() {
		*l = list{}
		return nil
	}
	old, at, n := *l, len(*store), 0
	err := sc.Array(func() error {
		var v T
		if n < old.held {
			v = (*store)[old.at+n]
		}
		*store = append(*store, v)
		n++
		if sc.Null() {
			return nil
		}
		return decode(&(*store)[at+n-1])
	})
	switch {
	case err != nil:
		return err
	case n == 0:
		*l = list{}
		return nil
	case n < old.held:
		*store = append(*store, (*store)[old.at+n:old.at+old.held]...)
	}
	*l = list{at: at, n: n, held: max(n, old.held)}
	return nil
}

func unknownField(key []byte) error {
	return fmt.Errorf("unknown field %q", string(key))
}

// opsOf returns a decoded list of ops.
func (req *request) opsOf(l list) []wireOp { return req.ops[l.at : l.at+l.n] }

// resolve maps an op's link names to admitter indices in the request's
// scratch.
func (req *request) resolve(s *Server, o *wireOp) ([]int, error) {
	route, err := resolveRoute(s, req.route[:0], req.links[o.links.at:o.links.at+o.links.n])
	if err == nil {
		req.route = route
	}
	return route, err
}
