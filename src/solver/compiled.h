/**
 * @file
 * Slot-addressed compilation of lowered constraint programs.
 *
 * The lowered Node tree (solver/constraint.h) names every variable by
 * a flattened string ("inner.iterator", "read[0].base_pointer"), so a
 * naive solver pays string hashing and map-node allocation on every
 * binding, readiness scan and wildcard probe — the innermost loop of
 * the whole pipeline. Compilation removes all of that work from the
 * search:
 *
 *  - every flattened variable name is interned once into a dense
 *    `uint32_t` slot (SymbolTable), so a binding is one vector store;
 *  - the And/Or/Atomic/Collect nodes are stored in one contiguous
 *    array with child/operand lists as index ranges into shared
 *    arrays, so the goal schedule is plain integer indices;
 *  - atomic payloads are resolved at compile time (opcode names to
 *    ir::Opcode, the IsConstantZero type selector to an enum), so no
 *    string comparison survives into evaluation;
 *  - the collect-body "[#]" name templates and the "[*]" wildcard
 *    list entries are pre-expanded into slot runs, so no
 *    `std::string::find`/`substr`/concatenation runs during search;
 *  - a slot-to-atomic use CSR backs the per-node unbound counters
 *    that replace readiness scans;
 *  - a node-to-atomic CSR lists, per node, the non-deferred atomics
 *    reachable through And edges only — the atomics a goal-ring entry
 *    commits every path below it to evaluate, which drives forward
 *    checking.
 *
 * A CompiledProgram is immutable after construction and holds no
 * per-search state, so one instance (cached per idiom next to
 * idioms::loweredIdiomOrNull) is shared by every driver and service
 * session in the process.
 */
#ifndef SOLVER_COMPILED_H
#define SOLVER_COMPILED_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/instruction.h"
#include "solver/constraint.h"

namespace repro::solver {

/** Interned flattened-variable-name table of one compiled program. */
class SymbolTable
{
  public:
    static constexpr uint32_t kNoSlot = 0xffffffffu;

    /** Slot of @p name, interning it if new. */
    uint32_t
    intern(const std::string &name)
    {
        auto [it, inserted] = index_.emplace(
            name, static_cast<uint32_t>(names_.size()));
        if (inserted)
            names_.push_back(name);
        return it->second;
    }

    /** Slot of @p name, or kNoSlot when never interned. */
    uint32_t
    lookup(const std::string &name) const
    {
        auto it = index_.find(name);
        return it == index_.end() ? kNoSlot : it->second;
    }

    const std::string &name(uint32_t slot) const { return names_[slot]; }

    uint32_t size() const
    {
        return static_cast<uint32_t>(names_.size());
    }

  private:
    std::vector<std::string> names_;
    std::map<std::string, uint32_t> index_;
};

/** IsConstantZero type selector, resolved from Node::opcodeName. */
enum class ZeroKind : uint8_t
{
    Pointer,
    Integer,
    Float,
};

/**
 * True when @p name is an opcode spelling accepted by IDL
 * "is <op> instruction" atomics ("add", "gep", "getelementptr", ...).
 * The IDL semantic analyzer (idl/check.h) uses this to surface typo'd
 * opcode names at library load time instead of letting the atomic
 * silently resolve to an empty candidate set at solve time.
 */
bool knownOpcodeName(const std::string &name);

/**
 * Compile-time-resolved atomic payload shared by the compiled and the
 * reference evaluation paths (see solver/atomics.h).
 */
struct AtomicTraits
{
    idl::AtomicKind atomic = idl::AtomicKind::Same;
    /** Resolved opcode of IsOpcode atomics; valid iff opcodeKnown. */
    ir::Opcode opcode = ir::Opcode::Add;
    bool opcodeKnown = false;
    ZeroKind zero = ZeroKind::Pointer;
    int argPosition = 0;
    bool negated = false;
    bool strict = false;
    bool postDom = false;
    idl::FlowKind flow = idl::FlowKind::Any;
};

/**
 * One entry of a compiled variable list: either a direct slot or a
 * reference to a pre-expanded "[*]" wildcard run.
 */
struct ListEntry
{
    bool wildcard = false;
    /** Slot id, or wildcard-run id when wildcard is set. */
    uint32_t id = SymbolTable::kNoSlot;
};

/** One slot-addressed node; field meanings as in solver::Node. */
struct CompiledNode
{
    Node::Kind kind = Node::Kind::And;

    // Atomic payload.
    AtomicTraits traits;
    /** Pre-classified isDeferredAtomic() result. */
    bool deferred = false;
    /** Positional variable slots: varSlots_[varsBegin, varsEnd). */
    uint32_t varsBegin = 0, varsEnd = 0;
    /** Variable lists: lists()[listsBegin, listsEnd). */
    uint32_t listsBegin = 0, listsEnd = 0;

    // And / Or: childIds()[childBegin, childEnd).
    uint32_t childBegin = 0, childEnd = 0;

    // Collect.
    int collectMax = 0;
    uint32_t body = 0; ///< node id of the collect body

    size_t numVars() const { return varsEnd - varsBegin; }
    size_t numChildren() const { return childEnd - childBegin; }
};

/** Index range of one compiled variable list into listEntries(). */
struct CompiledList
{
    uint32_t begin = 0, end = 0;
};

/**
 * A lowered constraint program compiled to slot-addressed form.
 * Node 0 is always the root. Immutable after construction.
 */
class CompiledProgram
{
  public:
    /** Compile @p program (which stays unreferenced afterwards). */
    explicit CompiledProgram(const ConstraintProgram &program);

    const std::string &name() const { return name_; }
    uint32_t root() const { return 0; }
    uint32_t numNodes() const
    {
        return static_cast<uint32_t>(nodes_.size());
    }
    const CompiledNode &node(uint32_t id) const { return nodes_[id]; }

    uint32_t numSlots() const { return symbols_.size(); }
    const SymbolTable &symbols() const { return symbols_; }
    const std::string &slotName(uint32_t slot) const
    {
        return symbols_.name(slot);
    }

    /** Positional variable slot @p i of atomic @p n. */
    uint32_t
    varSlot(const CompiledNode &n, size_t i) const
    {
        return varSlots_[n.varsBegin + i];
    }

    const std::vector<uint32_t> &childIds() const { return childIds_; }
    const std::vector<CompiledList> &lists() const { return lists_; }
    const std::vector<ListEntry> &listEntries() const
    {
        return listEntries_;
    }

    /** Pre-expanded slots of wildcard run @p id, index order. */
    const std::vector<uint32_t> &wildcardRun(uint32_t id) const
    {
        return wildcardRuns_[id];
    }

    /**
     * Slot of template slot @p slot (whose name contains "[#]") with
     * every "[#]" replaced by "[k]". Valid for k < maxCollect().
     */
    uint32_t
    expandedSlot(uint32_t slot, int k) const
    {
        return expandBySlot_[slot][static_cast<size_t>(k)];
    }

    /** True when slotName(slot) contains the collect marker "[#]". */
    bool
    isTemplateSlot(uint32_t slot) const
    {
        return !expandBySlot_[slot].empty();
    }

    /** Template slots in lexicographic name order. */
    const std::vector<uint32_t> &templateSlotsByName() const
    {
        return templateSlotsByName_;
    }

    /** All slots in lexicographic name order (emission order). */
    const std::vector<uint32_t> &orderedSlots() const
    {
        return orderedSlots_;
    }

    /**
     * Atomic nodes referencing @p slot as a positional variable, one
     * entry per occurrence — the adjacency behind per-node unbound
     * counters.
     */
    const uint32_t *
    slotUsesBegin(uint32_t slot) const
    {
        return slotUseNodes_.data() + slotUseBegin_[slot];
    }

    const uint32_t *
    slotUsesEnd(uint32_t slot) const
    {
        return slotUseNodes_.data() + slotUseBegin_[slot + 1];
    }

    /**
     * Non-deferred atomics reachable from node @p id through And edges
     * only (the node itself when it is one), in node-id order. Or
     * alternatives and collect bodies contribute nothing: a goal-ring
     * entry commits every path below it to evaluating exactly these.
     */
    const uint32_t *
    andAtomicsBegin(uint32_t id) const
    {
        return andAtomicNodes_.data() + andAtomicBegin_[id];
    }

    const uint32_t *
    andAtomicsEnd(uint32_t id) const
    {
        return andAtomicNodes_.data() + andAtomicBegin_[id + 1];
    }

    /** Largest collect bound in the program (wildcard-run length). */
    int maxCollect() const { return maxCollect_; }

  private:
    uint32_t compileNode(const Node &node);
    void finalizeTables();

    std::string name_;
    std::vector<CompiledNode> nodes_;
    std::vector<uint32_t> childIds_;
    std::vector<uint32_t> varSlots_;
    std::vector<CompiledList> lists_;
    std::vector<ListEntry> listEntries_;
    std::vector<std::vector<uint32_t>> wildcardRuns_;
    std::map<std::string, uint32_t> wildcardRunIds_;
    SymbolTable symbols_;
    std::vector<std::vector<uint32_t>> expandBySlot_;
    std::vector<uint32_t> templateSlotsByName_;
    std::vector<uint32_t> orderedSlots_;
    std::vector<uint32_t> slotUseBegin_;
    std::vector<uint32_t> slotUseNodes_;
    std::vector<uint32_t> andAtomicBegin_;
    std::vector<uint32_t> andAtomicNodes_;
    int maxCollect_ = 0;
};

} // namespace repro::solver

#endif // SOLVER_COMPILED_H
