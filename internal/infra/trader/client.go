package trader

import (
	"context"
	"fmt"

	"maqs/internal/cdr"
	"maqs/internal/ior"
	"maqs/internal/orb"
)

// Client drives a remote trader.
type Client struct {
	orb    *orb.ORB
	target *ior.IOR
}

// NewClient builds a trader client for the given trader reference.
func NewClient(o *orb.ORB, target *ior.IOR) *Client {
	return &Client{orb: o, target: target}
}

func (c *Client) call(ctx context.Context, op string, args []byte) (*cdr.Decoder, error) {
	out, err := c.orb.Invoke(ctx, &orb.Invocation{
		Target:           c.target,
		Operation:        op,
		Args:             args,
		ResponseExpected: true,
		Order:            c.orb.Order(),
	})
	if err != nil {
		return nil, err
	}
	if err := out.Err(); err != nil {
		return nil, err
	}
	return out.Decoder(), nil
}

// Export registers a service offer and returns its ID.
func (c *Client) Export(ctx context.Context, offer *ServiceOffer) (string, error) {
	e := cdr.NewEncoder(c.orb.Order())
	offer.marshal(e)
	d, err := c.call(ctx, opExport, e.Bytes())
	if err != nil {
		return "", err
	}
	id, err := d.ReadString()
	if err != nil {
		return "", fmt.Errorf("trader: decoding export id: %w", err)
	}
	return id, nil
}

// Withdraw removes an offer; it reports whether the ID was known.
func (c *Client) Withdraw(ctx context.Context, id string) (bool, error) {
	e := cdr.NewEncoder(c.orb.Order())
	e.WriteString(id)
	d, err := c.call(ctx, opWithdraw, e.Bytes())
	if err != nil {
		return false, err
	}
	return d.ReadBool()
}

// Query finds offers of the given type matching the constraint.
func (c *Client) Query(ctx context.Context, serviceType, constraint string) ([]*ServiceOffer, error) {
	e := cdr.NewEncoder(c.orb.Order())
	e.WriteString(serviceType)
	e.WriteString(constraint)
	d, err := c.call(ctx, opQuery, e.Bytes())
	if err != nil {
		return nil, err
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("trader: decoding result count: %w", err)
	}
	if n > 4096 {
		return nil, fmt.Errorf("trader: result count %d exceeds limit", n)
	}
	out := make([]*ServiceOffer, 0, n)
	for i := uint32(0); i < n; i++ {
		offer, err := unmarshalServiceOffer(d)
		if err != nil {
			return nil, err
		}
		out = append(out, offer)
	}
	return out, nil
}
