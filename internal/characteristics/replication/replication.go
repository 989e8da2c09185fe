package replication

import (
	"context"
	"fmt"
	"sync"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// Name is the characteristic name.
const Name = "Availability"

// Parameter names.
const (
	// ParamReplicas is the number of replicas the client wants engaged.
	ParamReplicas = "replicas"
	// ParamStrategy selects the replication strategy.
	ParamStrategy = "strategy"
	// ParamVoting requires a majority vote over active replies.
	ParamVoting = "voting"
)

// Strategy names.
const (
	StrategyActive   = "active"
	StrategyFailover = "failover"
)

// QoS operations of the characteristic (group management and the aspect
// integration interface).
const (
	// OpMembers returns the replica endpoints: out sequence<string>.
	OpMembers = "repl_members"
	// OpGetState serialises the application state: out octets.
	OpGetState = "repl_get_state"
	// OpSetState installs an application state: in octets.
	OpSetState = "repl_set_state"
	// OpJoin adds a replica endpoint and returns the current state:
	// in string endpoint, out octets.
	OpJoin = "repl_join"
	// OpLeave removes a replica endpoint: in string endpoint.
	OpLeave = "repl_leave"
)

// Describe returns the characteristic descriptor.
func Describe() *qos.Characteristic {
	return &qos.Characteristic{
		Name:     Name,
		Category: qos.CategoryFaultTolerance,
		Params: []qos.ParameterDecl{
			{Name: ParamReplicas, Kind: qos.KindNumber, Default: qos.Number(2)},
			{Name: ParamStrategy, Kind: qos.KindString, Default: qos.Text(StrategyActive)},
			{Name: ParamVoting, Kind: qos.KindBool, Default: qos.Flag(false)},
		},
		Operations: []string{OpMembers, OpGetState, OpSetState, OpJoin, OpLeave},
	}
}

// Register adds the characteristic with its replication mediator factory.
func Register(r *qos.Registry) error {
	err := r.Register(Describe(), func(st *qos.Stub, b *qos.Binding) (qos.Mediator, error) {
		return NewMediator(st, b)
	})
	if err != nil {
		return fmt.Errorf("replication: %w", err)
	}
	return nil
}

// Impl is the per-replica server-side implementation.
type Impl struct {
	qos.BaseImpl

	state qos.StateAccessor

	mu      sync.Mutex
	members []string
}

// NewImpl constructs a replica implementation. maxReplicas bounds the
// offered replica count; state is the aspect-integration interface to the
// application object (may be nil for stateless services, disabling the
// state-transfer operations).
func NewImpl(maxReplicas int, members []string, state qos.StateAccessor) *Impl {
	impl := &Impl{state: state, members: append([]string(nil), members...)}
	impl.Desc = Describe()
	impl.Capability = &qos.Offer{
		Characteristic: Name,
		Params: []qos.ParamOffer{
			{Name: ParamReplicas, Kind: qos.KindNumber, Min: 1, Max: float64(maxReplicas), Default: qos.Number(2)},
			{Name: ParamStrategy, Kind: qos.KindString,
				Choices: []string{StrategyActive, StrategyFailover}, Default: qos.Text(StrategyActive)},
			{Name: ParamVoting, Kind: qos.KindBool, Default: qos.Flag(false)},
		},
	}
	return impl
}

// Members returns the current group view.
func (i *Impl) Members() []string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]string(nil), i.members...)
}

// SetMembers replaces the group view.
func (i *Impl) SetMembers(members []string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.members = append([]string(nil), members...)
}

func (i *Impl) addMember(endpoint string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, m := range i.members {
		if m == endpoint {
			return
		}
	}
	i.members = append(i.members, endpoint)
}

func (i *Impl) removeMember(endpoint string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := i.members[:0]
	for _, m := range i.members {
		if m != endpoint {
			out = append(out, m)
		}
	}
	i.members = out
}

// QoSOperation answers the group-management operations.
func (i *Impl) QoSOperation(req *orb.ServerRequest, b *qos.Binding) error {
	switch req.Operation {
	case OpMembers:
		members := i.Members()
		req.Out.WriteULong(uint32(len(members)))
		for _, m := range members {
			req.Out.WriteString(m)
		}
		return nil
	case OpGetState:
		if i.state == nil {
			return orb.NewSystemException(orb.ExcNoImplement, 100, "object exposes no state accessor")
		}
		state, err := i.state.GetState()
		if err != nil {
			return orb.NewSystemException(orb.ExcInternal, 101, "reading state: %v", err)
		}
		req.Out.WriteOctets(state)
		return nil
	case OpSetState:
		if i.state == nil {
			return orb.NewSystemException(orb.ExcNoImplement, 102, "object exposes no state accessor")
		}
		state, err := req.In().ReadOctets()
		if err != nil {
			return orb.NewSystemException(orb.ExcMarshal, 103, "bad state payload: %v", err)
		}
		if err := i.state.SetState(state); err != nil {
			return orb.NewSystemException(orb.ExcInternal, 104, "installing state: %v", err)
		}
		return nil
	case OpJoin:
		endpoint, err := req.In().ReadString()
		if err != nil {
			return orb.NewSystemException(orb.ExcMarshal, 105, "bad join payload: %v", err)
		}
		i.addMember(endpoint)
		var state []byte
		if i.state != nil {
			if state, err = i.state.GetState(); err != nil {
				return orb.NewSystemException(orb.ExcInternal, 106, "reading state for joiner: %v", err)
			}
		}
		req.Out.WriteOctets(state)
		return nil
	case OpLeave:
		endpoint, err := req.In().ReadString()
		if err != nil {
			return orb.NewSystemException(orb.ExcMarshal, 107, "bad leave payload: %v", err)
		}
		i.removeMember(endpoint)
		return nil
	default:
		return orb.NewSystemException(orb.ExcBadOperation, 108, "no QoS op %q", req.Operation)
	}
}

// Join brings a (re)started replica up to date: it negotiates a temporary
// binding with a running member, announces the new endpoint, installs the
// returned state through the accessor, updates the local group view, and
// releases the temporary binding.
func Join(ctx context.Context, o *orb.ORB, memberRef *ior.IOR, selfEndpoint string, impl *Impl) error {
	binding, err := qos.NegotiateRaw(ctx, o, memberRef, &qos.Proposal{Characteristic: Name})
	if err != nil {
		return fmt.Errorf("replication: join negotiation: %w", err)
	}
	tag := qos.QoSTag{Characteristic: Name, BindingID: binding.ID}.Encode()

	e := cdr.NewEncoder(o.Order())
	e.WriteString(selfEndpoint)
	out, err := o.Invoke(ctx, &orb.Invocation{
		Target:           memberRef,
		Operation:        OpJoin,
		Args:             e.Bytes(),
		Contexts:         giop.ServiceContextList{}.With(giop.SCQoS, tag),
		ResponseExpected: true,
		Order:            o.Order(),
	})
	if err != nil {
		return fmt.Errorf("replication: join call: %w", err)
	}
	if err := out.Err(); err != nil {
		return fmt.Errorf("replication: join rejected: %w", err)
	}
	state, err := out.Decoder().ReadOctets()
	if err != nil {
		return fmt.Errorf("replication: decoding joined state: %w", err)
	}
	if impl.state != nil && len(state) > 0 {
		if err := impl.state.SetState(state); err != nil {
			return fmt.Errorf("replication: installing joined state: %w", err)
		}
	}

	// Merge the member's view with ourselves.
	e = cdr.NewEncoder(o.Order())
	mout, err := o.Invoke(ctx, &orb.Invocation{
		Target:           memberRef,
		Operation:        OpMembers,
		Contexts:         giop.ServiceContextList{}.With(giop.SCQoS, tag),
		ResponseExpected: true,
		Order:            o.Order(),
	})
	if err == nil && mout.Err() == nil {
		d := mout.Decoder()
		if n, err := d.ReadULong(); err == nil && n <= 1024 {
			members := make([]string, 0, n+1)
			for j := uint32(0); j < n; j++ {
				m, err := d.ReadString()
				if err != nil {
					break
				}
				members = append(members, m)
			}
			members = appendUnique(members, selfEndpoint)
			impl.SetMembers(members)
		}
	}

	// Release the temporary binding; best effort.
	e = cdr.NewEncoder(o.Order())
	e.WriteString(binding.ID)
	_, _ = o.Invoke(ctx, &orb.Invocation{
		Target:           memberRef,
		Operation:        qos.OpRelease,
		Args:             e.Bytes(),
		ResponseExpected: true,
		Order:            o.Order(),
	})
	return nil
}

func appendUnique(list []string, s string) []string {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	return append(list, s)
}
