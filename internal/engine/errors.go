package engine

import "errors"

// Typed sentinel errors of the Request/Plan API. Every error returned
// by Execute, Get, NewSession and the service layer wraps one of these
// (or a context error), so callers branch with errors.Is instead of
// matching message strings:
//
//	plan, err := engine.Execute(ctx, req)
//	switch {
//	case errors.Is(err, engine.ErrUnknownSolver):  // 400: fix the request
//	case errors.Is(err, engine.ErrInfeasible):     // 422: request cannot be met
//	case errors.Is(err, engine.ErrCanceled):       // 499/504: deadline or cancel
//	}
var (
	// ErrUnknownSolver reports that no registered solver matches the
	// request's name or capability selector. The wrapping message lists
	// the known names.
	ErrUnknownSolver = errors.New("engine: unknown solver")

	// ErrInfeasible reports that the request as stated cannot be
	// satisfied: the chosen solver cannot build what was asked for
	// (scheme, trees, schedule), the instance violates the solver's
	// preconditions, or post-solve verification fell outside the
	// requested tolerance.
	ErrInfeasible = errors.New("engine: request infeasible")

	// ErrCanceled reports that the solve stopped on context cancellation
	// or an expired request deadline. It is always joined with the
	// underlying context error, so errors.Is also matches
	// context.Canceled / context.DeadlineExceeded.
	ErrCanceled = errors.New("engine: solve canceled")
)

// Canceled tags a context error with ErrCanceled, so both
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled)
// (resp. DeadlineExceeded) hold. An error that already matches
// ErrCanceled is returned as it is.
func Canceled(err error) error {
	if errors.Is(err, ErrCanceled) {
		return err
	}
	return errors.Join(ErrCanceled, err)
}
