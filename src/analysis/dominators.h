/**
 * @file
 * Dominator and post-dominator trees (Cooper-Harvey-Kennedy iterative
 * algorithm) with instruction-granularity queries.
 *
 * IDL evaluates control flow "on the granularity of instructions"
 * (section 3 of the paper); block-level trees are refined with
 * intra-block instruction order.
 */
#ifndef ANALYSIS_DOMINATORS_H
#define ANALYSIS_DOMINATORS_H

#include <map>
#include <vector>

#include "ir/function.h"

namespace repro::analysis {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;

/**
 * A dominator tree over the CFG of one function. With @p post_dom set,
 * the tree is computed on the reversed CFG (a virtual exit node joins
 * every returning block), yielding post-dominance.
 */
class DomTree
{
  public:
    DomTree(Function *func, bool post_dom);

    /** Immediate dominator block; null for the root. */
    BasicBlock *idom(const BasicBlock *bb) const;

    /** Block-level (post-)dominance, reflexive. */
    bool dominates(const BasicBlock *a, const BasicBlock *b) const;

    /** Instruction-level (post-)dominance, reflexive. */
    bool dominates(const Instruction *a, const Instruction *b) const;

    /** Non-reflexive variant. */
    bool strictlyDominates(const Instruction *a,
                           const Instruction *b) const;

    /** Dominance frontier of @p bb (used by mem2reg / control deps). */
    const std::vector<BasicBlock *> &frontier(const BasicBlock *bb) const;

    Function *function() const { return func_; }

  private:
    int indexOf(const BasicBlock *bb) const;
    void build();
    void buildFrontiers();

    Function *func_;
    bool postDom_;
    // Node 0..N-1 are blocks in function order; node N is the virtual
    // root used for post-dominance when several blocks return.
    std::vector<const BasicBlock *> nodes_;
    std::map<const BasicBlock *, int> nodeIndex_;
    std::vector<int> idom_;
    std::vector<std::vector<int>> preds_;
    std::vector<int> rpoNumber_;
    std::vector<std::vector<BasicBlock *>> frontiers_;
    int root_ = 0;
};

} // namespace repro::analysis

#endif // ANALYSIS_DOMINATORS_H
