#include "solver/solver.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>

#include "solver/atomics.h"
#include "support/diagnostics.h"

namespace repro::solver {

using ir::Value;

const char *
solveStatusToken(SolveStatus status)
{
    switch (status) {
      case SolveStatus::BudgetExhausted:
        return "budget";
      case SolveStatus::DeadlineExceeded:
        return "deadline";
      case SolveStatus::Complete:
        break;
    }
    return "";
}

SolveStatus
worseStatus(SolveStatus a, SolveStatus b)
{
    return static_cast<uint8_t>(a) >= static_cast<uint8_t>(b) ? a : b;
}

std::vector<const Value *>
Solution::lookupArray(const std::string &pattern) const
{
    std::vector<const Value *> out;
    size_t star = pattern.find("[*]");
    if (star == std::string::npos) {
        if (const Value *v = lookup(pattern))
            out.push_back(v);
        return out;
    }
    // One reused key buffer: the prefix is written once, only the
    // index digits and the suffix are rewritten per probe, and the
    // loop exits on the first gap after building that key once.
    std::string key(pattern, 0, star);
    key += '[';
    const size_t digits_at = key.size();
    for (int k = 0;; ++k) {
        key.resize(digits_at);
        key += std::to_string(k);
        key += ']';
        key.append(pattern, star + 3, std::string::npos);
        auto it = bindings.find(key);
        if (it == bindings.end())
            break;
        out.push_back(it->second);
    }
    return out;
}

std::string
Solution::str() const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, value] : bindings) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << name << "\": " << value->handle();
    }
    os << "}";
    return os.str();
}

std::string
Node::str(int indent) const
{
    std::ostringstream os;
    std::string pad(static_cast<size_t>(indent) * 2, ' ');
    switch (kind) {
      case Kind::And:
      case Kind::Or:
        os << pad << (kind == Kind::And ? "and" : "or") << "\n";
        for (const auto &c : children)
            os << c->str(indent + 1);
        break;
      case Kind::Collect:
        os << pad << "collect(max=" << collectMax << ")\n"
           << collectBody->str(indent + 1);
        break;
      case Kind::Atomic: {
        os << pad << "atomic#" << static_cast<int>(atomic);
        if (!opcodeName.empty())
            os << " " << opcodeName;
        if (argPosition)
            os << " pos=" << argPosition;
        for (const auto &v : vars)
            os << " {" << v << "}";
        for (const auto &list : varLists) {
            os << " [";
            for (const auto &v : list)
                os << " {" << v << "}";
            os << " ]";
        }
        os << "\n";
        break;
      }
    }
    return os.str();
}

namespace {

/**
 * Private unwind token of both engines: thrown by budgetCheck() when
 * a limit trips, caught at the top of run(), never escapes the
 * solver. Deliberately NOT a FatalError — real fatal errors (bad
 * atomics, broken programs) must propagate to the caller, while limit
 * exhaustion is a normal, degradable outcome carried in SolveStatus
 * with the solutions found so far.
 */
struct SearchAborted
{
    SolveStatus reason;
};

/** Deadline probe shared by both engines (strided off the hot path). */
inline void
deadlineCheck(const SolverLimits &limits, uint64_t assignments)
{
    if (limits.hasDeadline() &&
        (assignments & (SolverLimits::kDeadlineCheckStride - 1)) == 0 &&
        std::chrono::steady_clock::now() >= limits.deadline)
        throw SearchAborted{SolveStatus::DeadlineExceeded};
}

/** Entry probe: an already-expired deadline does zero search work. */
inline bool
deadlineExpired(const SolverLimits &limits)
{
    return limits.hasDeadline() &&
           std::chrono::steady_clock::now() >= limits.deadline;
}

/**
 * The compiled search: recursive backtracking over a slot-addressed
 * CompiledProgram.
 *
 * State layout (the whole point of the compilation step):
 *  - `slots` is the dense partial assignment — binding is one vector
 *    store plus counter updates, no string hashing;
 *  - `unbound_` holds one per-atomic counter of unbound positional
 *    variables, maintained through the program's slot-use CSR, so
 *    readiness is an integer compare instead of a bindings scan;
 *  - `pending_` counts, per atomic, the live ring entries it is
 *    And-reachable from (CompiledProgram::andAtomicsBegin): Or
 *    substitution adds the chosen alternative's atomics, consuming
 *    an atomic or deferring it on rotation exhaustion drops it, and
 *    And expansion leaves the counts as they are;
 *  - the goal list is a ring of node ids over `buf_` between `head_`
 *    and `tail_`: And splices its children in front (O(children)),
 *    Or substitutes in place (O(1)), rotation moves the head to the
 *    tail (O(1)) — where the interpreted engine copied the whole
 *    goal vector for each of these;
 *  - collect-added bindings go through `trail_` and are unwound after
 *    emission.
 *
 * Every frame undoes its schedule edits with relative arithmetic on
 * exit (never with saved absolute indices), which keeps reallocation
 * of `buf_` transparent to the frames above.
 *
 * Forward checking: binding a slot in tryCandidates() also evaluates
 * every pending atomic, other than the goal being solved, that the
 * binding left with no unbound slot, in node-id order. Such an atomic
 * is evaluated on every path below with the same values, so a failure
 * prunes the candidate's whole subtree without changing which
 * solutions are emitted or their order.
 *
 * Traversal order replicates the reference engine exactly: the same
 * goals are tried in the same order with the same candidate sets and
 * the same forward checks, so SolveStats and the emitted solution
 * sets are byte-identical.
 */
class CompiledSearch
{
  public:
    CompiledSearch(const CompiledProgram &prog, AtomContext ctx,
                   SolveStats &stats, const SolverLimits &limits,
                   std::vector<SlotBindings> &results)
        : prog_(prog), ctx_(ctx), stats_(stats), limits_(limits),
          results_(results)
    {}

    /** Dense bindings; pre-seed before run() for collect sub-search. */
    SlotBindings slots;

    /** How the most recent run() ended. */
    SolveStatus status = SolveStatus::Complete;

    void
    run(uint32_t root)
    {
        status = SolveStatus::Complete;
        if (deadlineExpired(limits_)) {
            status = SolveStatus::DeadlineExceeded;
            return;
        }
        // Reusable across runs (the collect sub-search pool below):
        // only first-run state is allocated, stale dedup stamps are
        // neutralized by the monotonic epoch, and the goal ring keeps
        // whatever capacity earlier runs grew.
        if (slots.empty())
            slots.assign(prog_.numSlots(), nullptr);
        initUnbound();
        pending_.assign(prog_.numNodes(), 0);
        markPending(root, 1);
        size_t universe = ctx_.index->universe().size();
        if (seen_.size() != universe) {
            seen_.assign(universe, 0);
            epoch_ = 0;
        }
        if (buf_.empty())
            buf_.assign(64, 0);
        head_ = tail_ = buf_.size() / 2;
        buf_[tail_++] = root;
        emitted_.clear();
        // A budget throw unwinds past the push/pop pairs of a prior
        // run; drop any such leftovers or a reused sub-search would
        // evaluate phantom deferred goals and collects.
        collects_.clear();
        deferred_.clear();
        trail_.clear();
        depth_ = 0;
        try {
            search(0);
        } catch (const SearchAborted &aborted) {
            // Limit tripped: return the solutions found so far.
            status = aborted.reason;
        }
    }

  private:
    void
    budgetCheck()
    {
        if (++stats_.assignments > limits_.maxAssignments)
            throw SearchAborted{SolveStatus::BudgetExhausted};
        deadlineCheck(limits_, stats_.assignments);
    }

    void
    bind(uint32_t slot, const Value *v)
    {
        if (!slots[slot]) {
            for (const uint32_t *n = prog_.slotUsesBegin(slot),
                                *e = prog_.slotUsesEnd(slot);
                 n != e; ++n) {
                --unbound_[*n];
            }
        }
        slots[slot] = v;
    }

    void
    unbind(uint32_t slot)
    {
        if (!slots[slot])
            return; // already erased by a collect overwrite
        slots[slot] = nullptr;
        for (const uint32_t *n = prog_.slotUsesBegin(slot),
                            *e = prog_.slotUsesEnd(slot);
             n != e; ++n) {
            ++unbound_[*n];
        }
    }

    void
    initUnbound()
    {
        unbound_.assign(prog_.numNodes(), 0);
        for (uint32_t id = 0; id < prog_.numNodes(); ++id) {
            const CompiledNode &n = prog_.node(id);
            if (n.kind != Node::Kind::Atomic)
                continue;
            uint32_t c = 0;
            for (size_t i = 0; i < n.numVars(); ++i) {
                if (!slots[prog_.varSlot(n, i)])
                    ++c;
            }
            unbound_[id] = c;
        }
    }

    /** Add (@p delta = 1) or drop (-1) the pending atomics of ring
     *  entry @p id. */
    void
    markPending(uint32_t id, int delta)
    {
        for (const uint32_t *n = prog_.andAtomicsBegin(id),
                            *e = prog_.andAtomicsEnd(id);
             n != e; ++n) {
            pending_[*n] += static_cast<uint32_t>(delta);
        }
    }

    /**
     * Evaluate, in node-id order, every pending atomic other than
     * @p gid that binding @p slot left with no unbound slot. False as
     * soon as one fails: the subtree below holds no solution.
     */
    bool
    forwardCheck(uint32_t gid, uint32_t slot)
    {
        uint32_t last = gid;
        for (const uint32_t *n = prog_.slotUsesBegin(slot),
                            *e = prog_.slotUsesEnd(slot);
             n != e; ++n) {
            if (*n == gid || *n == last || pending_[*n] == 0 ||
                unbound_[*n] != 0)
                continue;
            last = *n;
            ++stats_.checks;
            if (!evalAtomic(prog_, prog_.node(*n), slots, ctx_))
                return false;
        }
        return true;
    }

    /** Make room for @p need goal cells in front of head_. */
    void
    ensureFront(size_t need)
    {
        if (head_ >= need)
            return;
        size_t live = tail_ - head_;
        size_t newSize = std::max(buf_.size() * 2, live + need + 64);
        std::vector<uint32_t> grown(newSize);
        size_t newHead = need + (newSize - live - need) / 2;
        std::copy(buf_.begin() + static_cast<ptrdiff_t>(head_),
                  buf_.begin() + static_cast<ptrdiff_t>(tail_),
                  grown.begin() + static_cast<ptrdiff_t>(newHead));
        buf_.swap(grown);
        head_ = newHead;
        tail_ = newHead + live;
    }

    void
    ensureBack()
    {
        if (tail_ == buf_.size())
            buf_.resize(buf_.size() * 2);
    }

    /** Pooled per-depth buffer (stable under deeper recursion). */
    std::vector<const Value *> &
    uniqueAt(size_t depth)
    {
        while (uniquePool_.size() <= depth)
            uniquePool_.emplace_back();
        std::vector<const Value *> &v = uniquePool_[depth];
        v.clear();
        return v;
    }

    void
    search(int rotations)
    {
        if (results_.size() >= limits_.maxSolutions)
            return;
        if (head_ == tail_) {
            finalize();
            return;
        }
        ++depth_;
        searchGoal(rotations);
        --depth_;
    }

    void
    searchGoal(int rotations)
    {
        const uint32_t gid = buf_[head_];
        const CompiledNode &g = prog_.node(gid);
        switch (g.kind) {
          case Node::Kind::And: {
            size_t k = g.numChildren();
            if (k > 0) {
                ensureFront(k - 1);
                head_ -= k - 1;
                const std::vector<uint32_t> &kids = prog_.childIds();
                for (size_t i = 0; i < k; ++i)
                    buf_[head_ + i] = kids[g.childBegin + i];
                search(0);
                head_ += k - 1;
            } else {
                ++head_;
                search(0);
                --head_;
            }
            buf_[head_] = gid;
            return;
          }
          case Node::Kind::Or: {
            for (uint32_t i = g.childBegin; i < g.childEnd; ++i) {
                const uint32_t alt = prog_.childIds()[i];
                buf_[head_] = alt;
                markPending(alt, 1);
                search(0);
                markPending(alt, -1);
                if (results_.size() >= limits_.maxSolutions)
                    break;
            }
            buf_[head_] = gid;
            return;
          }
          case Node::Kind::Collect: {
            collects_.push_back(gid);
            ++head_;
            search(0);
            --head_;
            buf_[head_] = gid;
            collects_.pop_back();
            return;
          }
          case Node::Kind::Atomic:
            break;
        }

        if (g.deferred) {
            deferred_.push_back(gid);
            ++head_;
            search(0);
            --head_;
            buf_[head_] = gid;
            deferred_.pop_back();
            return;
        }

        // Readiness is one counter load — the unbound positions are
        // only enumerated when a generator is actually needed.
        if (unbound_[gid] == 0) {
            ++stats_.checks;
            if (evalAtomic(prog_, g, slots, ctx_))
                consume(gid);
            return;
        }

        // Try to generate candidates for one of the unassigned
        // variables; generators tolerate other variables still being
        // free (the goal is revisited after each assignment).
        for (size_t i = 0; i < g.numVars(); ++i) {
            uint32_t slot = prog_.varSlot(g, i);
            if (slots[slot])
                continue;
            const std::vector<const Value *> *candidates =
                genCandidates(prog_, g, i, slots, ctx_, scratch_);
            if (candidates) {
                tryCandidates(gid, g, slot, *candidates);
                return;
            }
        }

        // Not ready: rotate this goal to the back. If every remaining
        // goal is equally stuck, defer it — its variables can only be
        // bound by collects (library idioms introduce every regular
        // variable through a generating atomic).
        if (rotations < static_cast<int>(tail_ - head_)) {
            ++stats_.rotations;
            ensureBack();
            buf_[tail_++] = gid;
            ++head_;
            search(rotations + 1);
            --head_;
            --tail_;
            buf_[head_] = gid;
            return;
        }
        deferred_.push_back(gid);
        consume(gid);
        deferred_.pop_back();
    }

    /** Search on past the non-deferred atomic @p gid at the head,
     *  which stops being pending meanwhile. */
    void
    consume(uint32_t gid)
    {
        --pending_[gid];
        ++head_;
        search(0);
        --head_;
        buf_[head_] = gid;
        ++pending_[gid];
    }

    void
    tryCandidates(uint32_t gid, const CompiledNode &g, uint32_t slot,
                  const std::vector<const Value *> &candidates)
    {
        // Deduplicate up front with epoch stamps on the universe
        // positions — no per-candidate tree allocation, and the
        // stamps need not survive the recursion below.
        std::vector<const Value *> &unique = uniqueAt(depth_);
        if (++epoch_ == 0) {
            std::fill(seen_.begin(), seen_.end(), 0u);
            epoch_ = 1;
        }
        for (const Value *c : candidates) {
            if (!c)
                continue;
            uint32_t vi = ctx_.index->indexOf(c);
            if (vi != analysis::CandidateIndex::npos) {
                if (seen_[vi] == epoch_) {
                    ++stats_.dedupHits;
                    continue;
                }
                seen_[vi] = epoch_;
            } else {
                // Candidates outside the universe (none on library
                // paths): linear fallback keeps semantics exact.
                if (std::find(outside_.begin(), outside_.end(), c) !=
                    outside_.end()) {
                    ++stats_.dedupHits;
                    continue;
                }
                outside_.push_back(c);
            }
            unique.push_back(c);
        }
        outside_.clear();

        for (const Value *c : unique) {
            budgetCheck();
            bind(slot, c);
            ++stats_.checks;
            bool unassigned_left = unbound_[gid] > 0;
            bool ok = unassigned_left ||
                      evalAtomic(prog_, g, slots, ctx_);
            if (ok && forwardCheck(gid, slot)) {
                if (unassigned_left) {
                    // Still unbound variables: revisit this goal.
                    search(0);
                } else {
                    consume(gid);
                }
            }
            unbind(slot);
            if (results_.size() >= limits_.maxSolutions)
                return;
        }
    }

    void
    finalize()
    {
        size_t mark = trail_.size();
        bool ok = runCollects(0);
        if (ok) {
            for (uint32_t d : deferred_) {
                ++stats_.checks;
                if (!evalAtomic(prog_, prog_.node(d), slots, ctx_)) {
                    ok = false;
                    break;
                }
            }
            if (ok)
                emit();
        }
        while (trail_.size() > mark) {
            unbind(trail_.back());
            trail_.pop_back();
        }
    }

    /**
     * Instantiate collect @p ci: enumerate all solutions of the body
     * (whose variable slots carry the "[#]" marker) and bind them as
     * indexed arrays through the pre-computed template expansions.
     * Returns false if any collect yields zero solutions — which
     * cannot happen here (an empty collect binds an empty array), but
     * the signature mirrors the reference engine. Defined after
     * SubSearch (it embeds one search per collect node).
     */
    bool runCollects(size_t ci);

    void
    emit()
    {
        // Dedup identical assignments arising from overlapping
        // disjunction branches. Walking the name-ordered slots makes
        // the key byte-identical to the reference engine's
        // map-iteration key.
        std::ostringstream key;
        for (uint32_t s : prog_.orderedSlots()) {
            if (const Value *v = slots[s])
                key << prog_.slotName(s) << "=" << v << ";";
        }
        if (!emitted_.insert(key.str()).second)
            return;
        ++stats_.solutions;
        results_.push_back(slots);
    }

    /** One pooled collect sub-search: its limits and result storage
     *  must outlive the CompiledSearch that references them. Defined
     *  after this class (it embeds one). */
    struct SubSearch;

    const CompiledProgram &prog_;
    AtomContext ctx_;
    SolveStats &stats_;
    const SolverLimits &limits_;
    std::vector<SlotBindings> &results_;
    /** Collect sub-searches, keyed by collect node id. */
    std::map<uint32_t, std::unique_ptr<SubSearch>> subPool_;

    // Goal schedule ring: live goals are buf_[head_, tail_).
    std::vector<uint32_t> buf_;
    size_t head_ = 0, tail_ = 0;

    std::vector<uint32_t> unbound_;  ///< per-node unbound-var counters
    std::vector<uint32_t> pending_;  ///< per-atomic live ring entries
    std::vector<uint32_t> collects_; ///< collect node ids on the path
    std::vector<uint32_t> deferred_; ///< deferred atomic node ids
    std::vector<uint32_t> trail_;    ///< collect-bound slots to unwind

    // Candidate dedup: epoch stamps per universe position.
    std::vector<uint32_t> seen_;
    uint32_t epoch_ = 0;
    std::vector<const Value *> outside_;

    // Reused buffers: one scratch for generation (drained before any
    // recursion) and one deduped list per depth (lives across it).
    std::vector<const Value *> scratch_;
    std::deque<std::vector<const Value *>> uniquePool_;
    size_t depth_ = 0;

    std::set<std::string> emitted_;
};

struct CompiledSearch::SubSearch
{
    SolverLimits limits;
    std::vector<SlotBindings> results;
    CompiledSearch search;

    SubSearch(const CompiledProgram &prog, AtomContext ctx,
              SolveStats &stats, const SolverLimits &l)
        : limits(l), search(prog, ctx, stats, limits, results)
    {}
};

bool
CompiledSearch::runCollects(size_t ci)
{
    if (ci == collects_.size())
        return true;
    const uint32_t colId = collects_[ci];
    const CompiledNode &col = prog_.node(colId);

    // Solve the body in a search over the same bindings — seeding is
    // one dense vector copy. The search object is pooled per collect
    // node: finalize() runs once per candidate leaf, so a fresh
    // sub-search here would redo universe-sized allocation and
    // zeroing on the hot path.
    auto &slot = subPool_[colId];
    if (!slot) {
        SolverLimits sublimits;
        sublimits.maxSolutions = static_cast<size_t>(col.collectMax);
        sublimits.maxAssignments = limits_.maxAssignments;
        sublimits.deadline = limits_.deadline;
        slot = std::make_unique<SubSearch>(prog_, ctx_, stats_,
                                           sublimits);
    }
    SubSearch &sub = *slot;
    sub.results.clear();
    sub.search.slots = slots;
    sub.search.run(col.body);
    // A sub-search that hit a limit kept its partial collect; the
    // emitted solution is then degraded too, so the abort reason must
    // surface on the outer search (the shared assignments counter
    // already guarantees the budget case re-trips out here).
    status = worseStatus(status, sub.search.status);

    // Dedup by the '#'-marked template slots only.
    std::set<std::string> seen;
    int k = 0;
    for (const SlotBindings &s : sub.results) {
        std::ostringstream key;
        std::vector<std::pair<uint32_t, const Value *>> fresh;
        for (uint32_t ts : prog_.templateSlotsByName()) {
            const Value *v = s[ts];
            if (!v)
                continue;
            key << prog_.slotName(ts) << "=" << v << ";";
            fresh.emplace_back(ts, v);
        }
        if (fresh.empty() || !seen.insert(key.str()).second)
            continue;
        for (const auto &[ts, v] : fresh) {
            uint32_t indexed = prog_.expandedSlot(ts, k);
            bind(indexed, v);
            trail_.push_back(indexed);
        }
        ++k;
        if (k >= col.collectMax)
            break;
    }
    // An empty collect binds an empty array; idioms that need at
    // least one element say so through constraints on element 0.
    return runCollects(ci + 1);
}

/**
 * The pre-compilation engine: the recursive search over goals with
 * name-keyed bindings and copied goal vectors. Golden reference for
 * CompiledSearch — do not "optimize" this; its value is that it
 * computes the answer the slow, obvious way.
 */
class ReferenceSearch
{
  public:
    ReferenceSearch(AtomContext ctx, SolveStats &stats,
                    const SolverLimits &limits,
                    std::vector<Solution> &results)
        : ctx_(ctx), stats_(stats), limits_(limits), results_(results)
    {}

    Bindings bindings;

    /** How the most recent run() ended. */
    SolveStatus status = SolveStatus::Complete;

    void
    run(const Node *root)
    {
        status = SolveStatus::Complete;
        if (deadlineExpired(limits_)) {
            status = SolveStatus::DeadlineExceeded;
            return;
        }
        numberPreorder(root);
        std::vector<const Node *> goals{root};
        try {
            search(goals, 0, 0);
        } catch (const SearchAborted &aborted) {
            // Limit tripped: return the solutions found so far.
            status = aborted.reason;
        }
    }

  private:
    void
    budgetCheck()
    {
        if (++stats_.assignments > limits_.maxAssignments)
            throw SearchAborted{SolveStatus::BudgetExhausted};
        deadlineCheck(limits_, stats_.assignments);
    }

    /** Number @p n's subtree in preorder (CompiledProgram's node-id
     *  order) for forward checks. */
    void
    numberPreorder(const Node *n)
    {
        preorder_.emplace(n, preorder_.size());
        for (const auto &c : n->children)
            numberPreorder(c.get());
        if (n->collectBody)
            numberPreorder(n->collectBody.get());
    }

    /** Append the non-deferred atomics reachable from @p n through And
     *  edges only. */
    static void
    andAtomics(const Node *n, std::vector<const Node *> &out)
    {
        if (n->kind == Node::Kind::And) {
            for (const auto &c : n->children)
                andAtomics(c.get(), out);
        } else if (n->kind == Node::Kind::Atomic && !isDeferredAtomic(*n)) {
            out.push_back(n);
        }
    }

    /**
     * Forward checking the obvious way: the atomics still ahead of
     * goals[idx] that name @p var and are now fully bound, evaluated
     * in preorder. False as soon as one fails.
     */
    bool
    forwardCheck(const std::vector<const Node *> &goals, size_t idx,
                 const std::string &var)
    {
        std::vector<const Node *> pending;
        for (size_t j = idx + 1; j < goals.size(); ++j)
            andAtomics(goals[j], pending);
        std::vector<const Node *> ready;
        for (const Node *a : pending) {
            bool names_var = false, bound = true;
            for (const auto &name : a->vars) {
                names_var = names_var || name == var;
                bound = bound && bindings.count(name);
            }
            if (names_var && bound)
                ready.push_back(a);
        }
        std::sort(ready.begin(), ready.end(),
                  [&](const Node *a, const Node *b) {
                      return preorder_.at(a) < preorder_.at(b);
                  });
        for (const Node *a : ready) {
            ++stats_.checks;
            if (!evalAtomic(*a, bindings, ctx_))
                return false;
        }
        return true;
    }

    void
    search(std::vector<const Node *> &goals, size_t idx, int rotations)
    {
        if (results_.size() >= limits_.maxSolutions)
            return;
        if (idx == goals.size()) {
            finalize();
            return;
        }
        const Node *g = goals[idx];
        switch (g->kind) {
          case Node::Kind::And: {
            std::vector<const Node *> next(goals.begin(),
                                           goals.begin() + idx);
            for (const auto &c : g->children)
                next.push_back(c.get());
            next.insert(next.end(), goals.begin() + idx + 1,
                        goals.end());
            search(next, idx, 0);
            return;
          }
          case Node::Kind::Or: {
            for (const auto &c : g->children) {
                std::vector<const Node *> next = goals;
                next[idx] = c.get();
                search(next, idx, 0);
                if (results_.size() >= limits_.maxSolutions)
                    return;
            }
            return;
          }
          case Node::Kind::Collect: {
            collects_.push_back(g);
            search(goals, idx + 1, 0);
            collects_.pop_back();
            return;
          }
          case Node::Kind::Atomic:
            break;
        }

        if (isDeferredAtomic(*g)) {
            deferred_.push_back(g);
            search(goals, idx + 1, 0);
            deferred_.pop_back();
            return;
        }

        // Collect unassigned variables of this atomic.
        std::vector<size_t> unassigned;
        for (size_t i = 0; i < g->vars.size(); ++i) {
            if (!bindings.count(g->vars[i]))
                unassigned.push_back(i);
        }

        if (unassigned.empty()) {
            ++stats_.checks;
            if (evalAtomic(*g, bindings, ctx_))
                search(goals, idx + 1, 0);
            return;
        }

        // Try to generate candidates for one of the unassigned
        // variables; generators tolerate other variables still being
        // free (the goal is revisited after each assignment).
        for (size_t pos : unassigned) {
            auto candidates = genCandidates(*g, pos, bindings, ctx_);
            if (candidates) {
                tryCandidates(goals, idx, g, g->vars[pos],
                              *candidates);
                return;
            }
        }

        // Not ready: rotate this goal to the back. If every remaining
        // goal is equally stuck, defer it — its variables can only be
        // bound by collects (library idioms introduce every regular
        // variable through a generating atomic).
        if (rotations < static_cast<int>(goals.size() - idx)) {
            ++stats_.rotations;
            std::vector<const Node *> next = goals;
            next.erase(next.begin() + static_cast<ptrdiff_t>(idx));
            next.push_back(g);
            search(next, idx, rotations + 1);
            return;
        }
        deferred_.push_back(g);
        search(goals, idx + 1, 0);
        deferred_.pop_back();
    }

    void
    tryCandidates(std::vector<const Node *> &goals, size_t idx,
                  const Node *g, const std::string &var,
                  const std::vector<const Value *> &candidates)
    {
        // Same shape as the compiled engine: dedup first, then try —
        // so the dedupHits counts match it exactly.
        std::set<const Value *> seen;
        std::vector<const Value *> unique;
        for (const Value *c : candidates) {
            if (!c)
                continue;
            if (!seen.insert(c).second) {
                ++stats_.dedupHits;
                continue;
            }
            unique.push_back(c);
        }
        for (const Value *c : unique) {
            budgetCheck();
            bindings[var] = c;
            ++stats_.checks;
            bool unassigned_left = false;
            for (const auto &name : g->vars) {
                if (!bindings.count(name)) {
                    unassigned_left = true;
                    break;
                }
            }
            bool ok = unassigned_left || evalAtomic(*g, bindings, ctx_);
            if (ok && forwardCheck(goals, idx, var)) {
                if (unassigned_left) {
                    // Still unbound variables: revisit this goal.
                    search(goals, idx, 0);
                } else {
                    search(goals, idx + 1, 0);
                }
            }
            bindings.erase(var);
            if (results_.size() >= limits_.maxSolutions)
                return;
        }
    }

    void
    finalize()
    {
        std::vector<std::string> added;
        if (!runCollects(0, added)) {
            for (const auto &name : added)
                bindings.erase(name);
            return;
        }
        bool ok = true;
        for (const Node *g : deferred_) {
            ++stats_.checks;
            if (!evalAtomic(*g, bindings, ctx_)) {
                ok = false;
                break;
            }
        }
        if (ok)
            emit();
        for (const auto &name : added)
            bindings.erase(name);
    }

    /**
     * Instantiate collect @p ci: enumerate all solutions of the body
     * (whose variable names contain "[#]") and bind them as indexed
     * arrays. Returns false if any collect yields zero solutions.
     */
    bool
    runCollects(size_t ci, std::vector<std::string> &added)
    {
        if (ci == collects_.size())
            return true;
        const Node *col = collects_[ci];

        // Solve the body in a fresh search over the same bindings.
        std::vector<Solution> subresults;
        SolverLimits sublimits;
        sublimits.maxSolutions =
            static_cast<size_t>(col->collectMax);
        sublimits.maxAssignments = limits_.maxAssignments;
        sublimits.deadline = limits_.deadline;
        ReferenceSearch sub(ctx_, stats_, sublimits, subresults);
        sub.bindings = bindings;
        sub.run(col->collectBody.get());
        status = worseStatus(status, sub.status);

        // Dedup by the '#'-indexed variables only.
        std::set<std::string> seen;
        int k = 0;
        for (const Solution &s : subresults) {
            std::ostringstream key;
            std::vector<std::pair<std::string, const Value *>> fresh;
            for (const auto &[name, value] : s.bindings) {
                if (name.find("[#]") == std::string::npos)
                    continue;
                key << name << "=" << value << ";";
                fresh.emplace_back(name, value);
            }
            if (fresh.empty() || !seen.insert(key.str()).second)
                continue;
            for (auto &[name, value] : fresh) {
                std::string indexed = name;
                size_t pos = indexed.find("[#]");
                indexed.replace(pos, 3,
                                "[" + std::to_string(k) + "]");
                // '#' may appear in several components.
                while ((pos = indexed.find("[#]")) !=
                       std::string::npos) {
                    indexed.replace(pos, 3,
                                    "[" + std::to_string(k) + "]");
                }
                bindings[indexed] = value;
                added.push_back(indexed);
            }
            ++k;
            if (k >= col->collectMax)
                break;
        }
        // An empty collect binds an empty array; idioms that need at
        // least one element say so through constraints on element 0.
        return runCollects(ci + 1, added);
    }

    void
    emit()
    {
        Solution s;
        s.bindings = bindings;
        // Dedup identical assignments arising from overlapping
        // disjunction branches.
        std::ostringstream key;
        for (const auto &[name, value] : s.bindings)
            key << name << "=" << value << ";";
        if (!emitted_.insert(key.str()).second)
            return;
        ++stats_.solutions;
        results_.push_back(std::move(s));
    }

    AtomContext ctx_;
    SolveStats &stats_;
    const SolverLimits &limits_;
    std::vector<Solution> &results_;
    std::vector<const Node *> collects_;
    std::vector<const Node *> deferred_;
    std::set<std::string> emitted_;
    std::map<const Node *, size_t> preorder_;
};

} // namespace

Solver::Solver(ir::Function *func, analysis::FunctionAnalyses &analyses)
    : func_(func), analyses_(analyses),
      index_(analyses.candidateIndex())
{
}

std::vector<Solution>
Solver::solveAll(const CompiledProgram &program,
                 const SolverLimits &limits)
{
    AtomContext ctx;
    ctx.func = func_;
    ctx.analyses = &analyses_;
    ctx.index = &index_;

    std::vector<SlotBindings> snapshots;
    CompiledSearch state(program, ctx, stats_, limits, snapshots);
    state.run(program.root());
    lastStatus_ = state.status;

    // Materialize the name-keyed Solutions the rest of the pipeline
    // consumes. orderedSlots() is lexicographic, so the hinted
    // insertions build each map in O(bindings).
    std::vector<Solution> results;
    results.reserve(snapshots.size());
    for (const SlotBindings &snap : snapshots) {
        Solution s;
        for (uint32_t slot : program.orderedSlots()) {
            if (const Value *v = snap[slot]) {
                s.bindings.emplace_hint(s.bindings.end(),
                                        program.slotName(slot), v);
            }
        }
        results.push_back(std::move(s));
    }
    return results;
}

std::vector<Solution>
Solver::solveAll(const ConstraintProgram &program,
                 const SolverLimits &limits)
{
    CompiledProgram compiled(program);
    return solveAll(compiled, limits);
}

std::vector<Solution>
Solver::solveAllReference(const ConstraintProgram &program,
                          const SolverLimits &limits)
{
    std::vector<Solution> results;
    AtomContext ctx;
    ctx.func = func_;
    ctx.analyses = &analyses_;
    ctx.index = &index_;
    ReferenceSearch state(ctx, stats_, limits, results);
    state.run(program.root.get());
    lastStatus_ = state.status;
    return results;
}

} // namespace repro::solver
