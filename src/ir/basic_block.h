/**
 * @file
 * BasicBlock: a straight-line sequence of instructions ending in a
 * terminator.
 */
#ifndef IR_BASIC_BLOCK_H
#define IR_BASIC_BLOCK_H

#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.h"

namespace repro::ir {

class Function;

/** A node of the control flow graph. */
class BasicBlock
{
  public:
    BasicBlock(std::string name, Function *parent)
        : name_(std::move(name)), parent_(parent)
    {}

    BasicBlock(const BasicBlock &) = delete;
    BasicBlock &operator=(const BasicBlock &) = delete;

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }
    Function *parent() const { return parent_; }

    const std::vector<std::unique_ptr<Instruction>> &insts() const
    {
        return insts_;
    }
    bool empty() const { return insts_.empty(); }
    size_t size() const { return insts_.size(); }

    Instruction *front() const { return insts_.front().get(); }
    Instruction *
    terminator() const
    {
        if (insts_.empty() || !insts_.back()->isTerminator())
            return nullptr;
        return insts_.back().get();
    }

    /** Append an instruction, taking ownership. */
    Instruction *append(std::unique_ptr<Instruction> inst);

    /** Insert before position @p index. */
    Instruction *insert(size_t index, std::unique_ptr<Instruction> inst);

    /** Index of @p inst in this block; -1 if absent. */
    int indexOf(const Instruction *inst) const;

    /** Detach and destroy @p inst. */
    void erase(Instruction *inst);

    /** Release @p inst without destroying it. */
    std::unique_ptr<Instruction> detach(Instruction *inst);

    /**
     * Successor blocks: the terminator's targets, or an empty list
     * when the block has no terminator. The reference is the
     * terminator's own list; it is valid until the terminator changes.
     */
    const std::vector<BasicBlock *> &successors() const;

    /** Predecessor blocks in function order, scanning the parent
     *  function. */
    std::vector<BasicBlock *> predecessors() const;

  private:
    std::string name_;
    Function *parent_;
    std::vector<std::unique_ptr<Instruction>> insts_;
};

} // namespace repro::ir

#endif // IR_BASIC_BLOCK_H
