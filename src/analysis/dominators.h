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

#include <utility>
#include <vector>

#include "ir/function.h"
#include "support/pointer_map.h"

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

    /** Block-level (post-)dominance, reflexive; O(1). False when
     *  either block is unreachable from the root. */
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
    /** Each node's neighbours, for nodes 0..n-1, in one array: node
     *  v's are list[start[v]] .. list[start[v + 1] - 1]. */
    struct Adjacency
    {
        std::vector<int> start;
        std::vector<int> list;

        Adjacency() = default;
        /** Group the (from, to) @p edges by from, or by to when
         *  @p reversed, keeping their order within each node. */
        Adjacency(int n, const std::vector<std::pair<int, int>> &edges,
                  bool reversed);
        const int *begin(int v) const { return list.data() + start[v]; }
        const int *end(int v) const { return list.data() + start[v + 1]; }
        int size(int v) const { return start[v + 1] - start[v]; }
    };

    int indexOf(const BasicBlock *bb) const;
    void build();
    void numberTree(int num_nodes);
    void buildFrontiers();

    Function *func_;
    bool postDom_;
    // Node 0..N-1 are blocks in function order; node N is the virtual
    // root used for post-dominance when several blocks return.
    std::vector<const BasicBlock *> nodes_;
    PointerMap nodeIndex_;
    std::vector<int> idom_;
    // Entry and exit numbers of a DFS over the dominator tree; -1 for
    // nodes the root does not reach. a dominates b iff a's interval
    // contains b's.
    std::vector<int> dfsIn_, dfsOut_;
    Adjacency preds_;
    std::vector<int> rpoNumber_;
    std::vector<std::vector<BasicBlock *>> frontiers_;
    int root_ = 0;
};

} // namespace repro::analysis

#endif // ANALYSIS_DOMINATORS_H
