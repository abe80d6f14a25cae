#include "analysis/dominators.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace repro::analysis {

DomTree::DomTree(Function *func, bool post_dom)
    : func_(func), postDom_(post_dom)
{
    build();
    buildFrontiers();
}

DomTree::Adjacency::Adjacency(
    int n, const std::vector<std::pair<int, int>> &edges, bool reversed)
{
    start.assign(n + 1, 0);
    for (const auto &[from, to] : edges)
        ++start[(reversed ? to : from) + 1];
    for (int v = 0; v < n; ++v)
        start[v + 1] += start[v];
    list.resize(edges.size());
    std::vector<int> fill(start.begin(), start.end() - 1);
    for (const auto &[from, to] : edges) {
        if (reversed)
            list[fill[to]++] = from;
        else
            list[fill[from]++] = to;
    }
}

int
DomTree::indexOf(const BasicBlock *bb) const
{
    int i = nodeIndex_.find(bb);
    reproAssert(i >= 0, "DomTree: foreign block");
    return i;
}

void
DomTree::build()
{
    const auto &blocks = func_->blocks();
    int n = static_cast<int>(blocks.size());
    nodes_.reserve(blocks.size());
    nodeIndex_.reserve(blocks.size());
    for (int i = 0; i < n; ++i) {
        nodes_.push_back(blocks[i].get());
        nodeIndex_.insert(blocks[i].get(), i);
    }

    // Block-level CFG edges, by source block.
    std::vector<std::pair<int, int>> edges;
    for (int i = 0; i < n; ++i) {
        for (BasicBlock *s : blocks[i]->successors())
            edges.emplace_back(i, indexOf(s));
    }
    int num_nodes = n;
    if (!postDom_) {
        root_ = 0;
    } else {
        // Virtual exit node n: incoming from every block whose
        // terminator is a return. The tree is built on the reversed
        // CFG.
        root_ = n;
        num_nodes = n + 1;
        for (int i = 0; i < n; ++i) {
            ir::Instruction *term = blocks[i]->terminator();
            if (term && term->is(ir::Opcode::Ret))
                edges.emplace_back(i, n);
        }
    }
    Adjacency succ(num_nodes, edges, postDom_);
    Adjacency pred(num_nodes, edges, !postDom_);

    // Reverse postorder from the root over `succ`.
    std::vector<int> order;
    std::vector<char> seen(num_nodes, 0);
    std::vector<std::pair<int, const int *>> stack;
    stack.emplace_back(root_, succ.begin(root_));
    seen[root_] = 1;
    while (!stack.empty()) {
        auto &[node, edge] = stack.back();
        if (edge != succ.end(node)) {
            int next = *edge++;
            if (!seen[next]) {
                seen[next] = 1;
                stack.emplace_back(next, succ.begin(next));
            }
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());

    rpoNumber_.assign(num_nodes, -1);
    for (size_t i = 0; i < order.size(); ++i)
        rpoNumber_[order[i]] = static_cast<int>(i);

    idom_.assign(num_nodes, -1);
    idom_[root_] = root_;

    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (rpoNumber_[a] > rpoNumber_[b])
                a = idom_[a];
            while (rpoNumber_[b] > rpoNumber_[a])
                b = idom_[b];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (int node : order) {
            if (node == root_)
                continue;
            int new_idom = -1;
            for (const int *p = pred.begin(node); p != pred.end(node);
                 ++p) {
                if (idom_[*p] == -1 || rpoNumber_[*p] == -1)
                    continue;
                new_idom = new_idom == -1 ? *p : intersect(*p, new_idom);
            }
            if (new_idom != -1 && idom_[node] != new_idom) {
                idom_[node] = new_idom;
                changed = true;
            }
        }
    }

    preds_ = std::move(pred);
    numberTree(num_nodes);
}

void
DomTree::numberTree(int num_nodes)
{
    std::vector<std::pair<int, int>> tree_edges;
    for (int node = 0; node < num_nodes; ++node) {
        if (node != root_ && idom_[node] != -1)
            tree_edges.emplace_back(idom_[node], node);
    }
    Adjacency children(num_nodes, tree_edges, false);
    dfsIn_.assign(num_nodes, -1);
    dfsOut_.assign(num_nodes, -1);
    int clock = 0;
    std::vector<std::pair<int, const int *>> stack;
    stack.emplace_back(root_, children.begin(root_));
    dfsIn_[root_] = clock++;
    while (!stack.empty()) {
        auto &[node, child] = stack.back();
        if (child != children.end(node)) {
            int next = *child++;
            dfsIn_[next] = clock++;
            stack.emplace_back(next, children.begin(next));
        } else {
            dfsOut_[node] = clock++;
            stack.pop_back();
        }
    }
}

void
DomTree::buildFrontiers()
{
    int n = static_cast<int>(nodes_.size());
    frontiers_.assign(n, {});
    for (int b = 0; b < n; ++b) {
        if (preds_.size(b) < 2)
            continue;
        for (const int *it = preds_.begin(b); it != preds_.end(b); ++it) {
            int p = *it;
            if (idom_[p] == -1 || idom_[b] == -1)
                continue;
            int runner = p;
            while (runner != idom_[b] && runner != root_) {
                if (runner < n) {
                    auto &fr = frontiers_[runner];
                    BasicBlock *bb =
                        const_cast<BasicBlock *>(nodes_[b]);
                    if (std::find(fr.begin(), fr.end(), bb) == fr.end())
                        fr.push_back(bb);
                }
                if (idom_[runner] == -1)
                    break;
                runner = idom_[runner];
            }
        }
    }
}

BasicBlock *
DomTree::idom(const BasicBlock *bb) const
{
    int i = indexOf(bb);
    if (i == root_ || idom_[i] == -1)
        return nullptr;
    int d = idom_[i];
    if (d >= static_cast<int>(nodes_.size()))
        return nullptr; // virtual exit
    return const_cast<BasicBlock *>(nodes_[d]);
}

bool
DomTree::dominates(const BasicBlock *a, const BasicBlock *b) const
{
    int ia = indexOf(a), ib = indexOf(b);
    if (dfsIn_[ia] == -1 || dfsIn_[ib] == -1)
        return false; // unreachable
    return dfsIn_[ia] <= dfsIn_[ib] && dfsOut_[ib] <= dfsOut_[ia];
}

bool
DomTree::dominates(const Instruction *a, const Instruction *b) const
{
    if (a == b)
        return true;
    const BasicBlock *ba = a->parent();
    const BasicBlock *bb = b->parent();
    if (ba == bb) {
        int ia = ba->indexOf(a);
        int ib = bb->indexOf(b);
        return postDom_ ? ia >= ib : ia <= ib;
    }
    return dominates(ba, bb);
}

bool
DomTree::strictlyDominates(const Instruction *a,
                           const Instruction *b) const
{
    return a != b && dominates(a, b);
}

const std::vector<BasicBlock *> &
DomTree::frontier(const BasicBlock *bb) const
{
    return frontiers_[indexOf(bb)];
}

} // namespace repro::analysis
