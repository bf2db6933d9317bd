#include "reduce/oracle.hh"

#include "obs/metrics.hh"
#include "support/hash.hh"

namespace compdiff::reduce
{

std::uint64_t
divergenceSignature(const core::DiffResult &result)
{
    support::HashCombiner combiner;
    combiner.add(result.divergent ? 1 : 0);
    combiner.add(result.classCount);
    for (std::size_t cls : result.classOf)
        combiner.add(cls);
    for (const auto &obs : result.observations)
        combiner.addString(obs.exitClass);
    return combiner.digest();
}

bool
Oracle::preserves(const minic::Program &program,
                  const support::Bytes &input)
{
    if (budgetExhausted())
        return false;
    stats_.tried++;
    if (!accepts(program, input))
        return false;
    stats_.accepted++;
    return true;
}

SignatureOracle::SignatureOracle(const minic::Program &program,
                                 core::ImplementationSet impls,
                                 const support::Bytes &witness,
                                 core::DiffOptions options,
                                 std::uint64_t candidate_budget)
    : Oracle(candidate_budget), impls_(std::move(impls)),
      options_(std::move(options))
{
    // Parallelism belongs to the reduction pipeline's per-signature
    // fan-out; a serial oracle keeps one reduction = one thread.
    options_.jobs = 1;
    witnessProgram_ = &program;
    witnessEngine_ = std::make_unique<core::DiffEngine>(
        program, impls_, options_);
    witnessResult_ = witnessEngine_->runInput(witness);
    reproduced_ = witnessResult_.divergent;
    target_ = divergenceSignature(witnessResult_);
}

SignatureOracle::~SignatureOracle() = default;

const core::DiffEngine &
SignatureOracle::engineFor(const minic::Program &program)
{
    // The witness program outlives the oracle, so its engine is
    // kept. Any other program is a reduction candidate borrowed for
    // ONE call, so the candidate engine is retargeted on EVERY call —
    // never keyed on &program. (A candidate dies after its call and a
    // later candidate can reuse the same heap address, so an
    // address-keyed cache would silently serve an engine whose
    // artifacts reference the freed AST.) Retargeting recompiles
    // through the process-wide CompileCache (only genuinely new
    // candidate sources compile) and rebinds the resident executors
    // in place, so the per-candidate cost is a cache lookup plus a
    // module rebind — no executor, Vm, or arena reconstruction.
    if (&program == witnessProgram_)
        return *witnessEngine_;
    if (!candidateEngine_) {
        candidateEngine_ = std::make_unique<core::DiffEngine>(
            program, impls_, options_);
    } else {
        candidateEngine_->retarget(program);
    }
    return *candidateEngine_;
}

bool
SignatureOracle::accepts(const minic::Program &program,
                         const support::Bytes &input)
{
    obs::counter("reduce.candidates_tried").add();
    const auto result = engineFor(program).runInput(input);
    if (!result.divergent ||
        divergenceSignature(result) != target_) {
        return false;
    }
    obs::counter("reduce.candidates_accepted").add();
    return true;
}

} // namespace compdiff::reduce
