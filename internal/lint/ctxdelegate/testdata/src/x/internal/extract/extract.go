// Package extract exercises the one-entry rule: its path contains
// /internal/, so an exported F beside FCtx is reported even when F only
// delegates.
package extract

import "context"

// Extract only delegates, yet is flagged.
func Extract(n int) (int, error) { // want `internal package exports both Extract and ExtractCtx`
	return ExtractCtx(context.Background(), n)
}

// ExtractCtx is the one entry that stays.
func ExtractCtx(ctx context.Context, n int) (int, error) { return n, ctx.Err() }

// T carries the method variants.
type T struct{}

// Run is a method twin of RunCtx: flagged.
func (t *T) Run(n int) error { // want `internal package exports both Run and RunCtx`
	return t.RunCtx(context.TODO(), n)
}

// RunCtx is the one entry that stays.
func (t *T) RunCtx(ctx context.Context, n int) error { return ctx.Err() }

// Plan's Ctx sibling has another receiver, so Plan is not a twin.
func Plan() int { return 1 }

// PlanCtx is a method of T.
func (t *T) PlanCtx(ctx context.Context) int { return 1 }
