/**
 * @file
 * Per-function value indices backing the constraint solver's candidate
 * generation.
 *
 * Historically every solver::Solver construction re-walked the function
 * to rebuild the value universe and the opcode/constant/argument
 * buckets — once per (function, idiom) pair, and via
 * Function::renumber(), which also wrote ids into module-shared
 * constants. The CandidateIndex hoists that work into one pass per
 * function that touches only function-owned state: it assigns the
 * dense ids of arguments and instructions (so unnamed values keep
 * their printable "%N" handles) but never writes to the
 * module-interned constants and globals, so indexing one function
 * leaves every other function of its module as it was. It is cached
 * inside FunctionAnalyses so all idioms solved against a function
 * share one index.
 *
 * The traversal order deliberately replicates Function::renumber()
 * (arguments, then instructions in block order, module constants and
 * globals interleaved at first operand use) so candidate enumeration
 * order — and therefore solution order — is identical to the
 * pre-index solver.
 */
#ifndef ANALYSIS_CANDIDATE_INDEX_H
#define ANALYSIS_CANDIDATE_INDEX_H

#include <array>
#include <map>
#include <vector>

#include "ir/function.h"
#include "ir/instruction.h"

namespace repro::analysis {

/** Read-only value indices of one function. */
class CandidateIndex
{
  public:
    /** Operand positions indexed for usersAt (IDL "first".."fourth"). */
    static constexpr size_t kMaxArgPositions = 4;

    /** indexOf() result for values outside the universe. */
    static constexpr uint32_t npos = 0xffffffffu;

    /**
     * Build all indices in one pass. Writes only @p func's own
     * argument/instruction ids; module-shared values are untouched.
     */
    explicit CandidateIndex(ir::Function *func);

    /**
     * Every value of the function in renumber() order: arguments,
     * then instructions block by block, with constants and globals
     * inserted once each at their first operand use.
     */
    const std::vector<const ir::Value *> &universe() const
    {
        return universe_;
    }

    /** Instructions with opcode @p op, in universe order. */
    const std::vector<const ir::Value *> &opcode(ir::Opcode op) const
    {
        auto it = byOpcode_.find(op);
        return it == byOpcode_.end() ? empty_ : it->second;
    }

    /** All instructions, in universe order. */
    const std::vector<const ir::Value *> &instructions() const
    {
        return instructions_;
    }

    /** Constants used by the function, in first-use order. */
    const std::vector<const ir::Value *> &constants() const
    {
        return constants_;
    }

    /** The additive-identity subset of constants(). */
    const std::vector<const ir::Value *> &zeroConstants() const
    {
        return zeroConstants_;
    }

    /** Formal arguments, in declaration order. */
    const std::vector<const ir::Value *> &arguments() const
    {
        return arguments_;
    }

    /** Constants, arguments and globals, in universe order. */
    const std::vector<const ir::Value *> &compileTimeValues() const
    {
        return compileTime_;
    }

    /**
     * Dense universe position of @p v, or npos when @p v is not part
     * of this function's universe. O(1) for arguments/instructions
     * (their ids are the universe positions this index assigned);
     * a map probe for the module-shared constants and globals. Backs
     * the solver's epoch-stamped candidate deduplication.
     */
    uint32_t
    indexOf(const ir::Value *v) const
    {
        if (!v)
            return npos;
        if (v->isArgument() || v->isInstruction()) {
            int id = v->id();
            // Guard against ids rewritten by a later renumber().
            if (id >= 0 && static_cast<size_t>(id) < universe_.size() &&
                universe_[static_cast<size_t>(id)] == v) {
                return static_cast<uint32_t>(id);
            }
            return npos;
        }
        auto it = sharedIndex_.find(v);
        return it == sharedIndex_.end() ? npos : it->second;
    }

    /**
     * Operand-edge adjacency: the users of @p v that carry it at
     * 0-based operand position @p pos (pos < kMaxArgPositions), in
     * Value::users() order. Empty for unindexed values/positions.
     */
    const std::vector<const ir::Value *> &usersAt(const ir::Value *v,
                                                  size_t pos) const
    {
        if (pos >= kMaxArgPositions)
            return empty_;
        auto it = argUsers_.find(v);
        return it == argUsers_.end() ? empty_ : it->second[pos];
    }

  private:
    void add(ir::Value *v);

    std::vector<const ir::Value *> universe_;
    std::vector<const ir::Value *> instructions_;
    std::vector<const ir::Value *> constants_;
    std::vector<const ir::Value *> zeroConstants_;
    std::vector<const ir::Value *> arguments_;
    std::vector<const ir::Value *> compileTime_;
    std::map<ir::Opcode, std::vector<const ir::Value *>> byOpcode_;
    /** Universe positions of constants/globals (ids stay unwritten). */
    std::map<const ir::Value *, uint32_t> sharedIndex_;
    std::map<const ir::Value *,
             std::array<std::vector<const ir::Value *>,
                        kMaxArgPositions>>
        argUsers_;
    static const std::vector<const ir::Value *> empty_;
};

} // namespace repro::analysis

#endif // ANALYSIS_CANDIDATE_INDEX_H
