#pragma once

/**
 * @file
 * Witness-input reduction: the AFL-tmin analog, specialized to
 * divergence preservation.
 *
 * Classic delta debugging (ddmin) over the witness bytes: remove
 * chunks at decreasing granularities (half, quarter, ... down to
 * single bytes), then normalize the survivors by zeroing every byte
 * that tolerates it. A candidate is kept only when the Oracle says
 * it still reproduces the bug (for SignatureOracle: the divergence
 * signature is unchanged) — the reduced input triggers the *same*
 * bug, not merely *a* bug. It is the one input minimizer: divergence
 * and sancheck triage and the campaign's Table 5/6 witnesses all
 * call it.
 *
 * Properties the tests rely on:
 *   - Determinism: candidate order is a pure function of the input
 *     bytes, and the oracle is deterministic, so the reduction is.
 *   - Idempotence: reducing an already-reduced input accepts no
 *     further candidate (every removal and zeroing was already
 *     tried and rejected at the fixpoint).
 *   - Monotonicity: the result is never larger than the witness.
 *   - Anytime: if the oracle budget runs out mid-way, the current
 *     best is returned and is itself a valid witness.
 */

#include <cstdint>

#include "minic/ast.hh"
#include "reduce/oracle.hh"
#include "support/bytes.hh"

namespace compdiff::reduce
{

/** Outcome of one input reduction. */
struct InputReduction
{
    /** The minimized input (== witness when nothing shrank). */
    support::Bytes reduced;
    std::uint64_t candidatesTried = 0;
    std::uint64_t candidatesAccepted = 0;
    /** Bytes deleted by ddmin chunk removal. */
    std::size_t bytesRemoved = 0;
    /** Surviving bytes canonicalized to zero. */
    std::size_t bytesNormalized = 0;
};

/**
 * Reduce `witness` against `program` while the oracle accepts. The
 * oracle's budget bounds the number of candidates.
 */
InputReduction reduceInput(Oracle &oracle,
                           const minic::Program &program,
                           const support::Bytes &witness);

} // namespace compdiff::reduce
