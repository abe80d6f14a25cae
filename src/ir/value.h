/**
 * @file
 * Value hierarchy of the SSA IR: the base Value class plus Constant,
 * Argument and GlobalVariable. Instructions live in instruction.h.
 *
 * The IR mirrors LLVM closely because the Idiom Description Language
 * (IDL, section 3 of the paper) expresses atomic constraints over LLVM
 * concepts: opcodes, operand positions, phi incomings, dominance and
 * data/control flow.
 */
#ifndef IR_VALUE_H
#define IR_VALUE_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/type.h"

namespace repro::ir {

class Instruction;
class Function;

/** Discriminator for the Value hierarchy. */
enum class ValueKind
{
    Constant,
    Argument,
    GlobalVariable,
    Instruction,
    FunctionRef,
};

/**
 * Base class of everything an instruction operand can name.
 *
 * Values track their users so that data-flow constraints ("has data flow
 * to") and RAUW are cheap.
 */
class Value
{
  public:
    Value(ValueKind kind, Type *type, std::string name)
        : kind_(kind), type_(type), name_(std::move(name))
    {}
    virtual ~Value() = default;

    Value(const Value &) = delete;
    Value &operator=(const Value &) = delete;

    ValueKind kind() const { return kind_; }
    Type *type() const { return type_; }

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /** Stable per-function numbering assigned by Function::renumber(). */
    int id() const { return id_; }
    void setId(int id) { id_ = id; }

    bool isConstant() const { return kind_ == ValueKind::Constant; }
    bool isArgument() const { return kind_ == ValueKind::Argument; }
    bool isInstruction() const { return kind_ == ValueKind::Instruction; }
    bool isGlobal() const { return kind_ == ValueKind::GlobalVariable; }

    /** Instructions currently using this value as an operand. */
    const std::vector<Instruction *> &users() const { return users_; }

    bool unused() const { return users_.empty(); }

    /** Rewrite every use of this value to @p replacement. */
    void replaceAllUsesWith(Value *replacement);

    /**
     * Remove every use of this value in one pass: each user loses
     * the operands naming it, and the user list empties. Erasing the
     * users one at a time through Instruction::dropOperands instead
     * rescans this list per use. Only for users about to be erased:
     * a phi's incoming blocks would fall out of step.
     */
    void dropUses();

    /** Short printable handle, e.g. "%sum" or "42". */
    virtual std::string handle() const;

  private:
    friend class Instruction;
    friend class Function; // cloneBodyFrom() replays users() order
    void addUser(Instruction *inst) { users_.push_back(inst); }
    void removeUser(Instruction *inst);

    ValueKind kind_;
    Type *type_;
    std::string name_;
    int id_ = -1;
    std::vector<Instruction *> users_;
};

/** An integer or floating point literal. Owned by the Module. */
class Constant : public Value
{
  public:
    Constant(Type *type, int64_t int_value)
        : Value(ValueKind::Constant, type, ""), intValue_(int_value)
    {}
    Constant(Type *type, double fp_value)
        : Value(ValueKind::Constant, type, ""), fpValue_(fp_value),
          isFP_(true)
    {}

    bool isFP() const { return isFP_; }
    int64_t intValue() const { return intValue_; }
    double fpValue() const { return fpValue_; }

    /** True when this is the additive identity of its type. */
    bool
    isZero() const
    {
        return isFP_ ? fpValue_ == 0.0 : intValue_ == 0;
    }

    std::string handle() const override;

  private:
    int64_t intValue_ = 0;
    double fpValue_ = 0.0;
    bool isFP_ = false;
};

/** A formal parameter of a Function. */
class Argument : public Value
{
  public:
    Argument(Type *type, std::string name, Function *parent, int index)
        : Value(ValueKind::Argument, type, std::move(name)),
          parent_(parent), index_(index)
    {}

    Function *parent() const { return parent_; }
    int index() const { return index_; }

  private:
    Function *parent_;
    int index_;
};

/**
 * A module-level array or scalar with static storage. Its Value type is
 * a pointer to the stored type, as in LLVM.
 */
class GlobalVariable : public Value
{
  public:
    GlobalVariable(Type *pointer_type, Type *stored_type, std::string name)
        : Value(ValueKind::GlobalVariable, pointer_type, std::move(name)),
          storedType_(stored_type)
    {}

    Type *storedType() const { return storedType_; }

    std::string handle() const override { return "@" + name(); }

  private:
    Type *storedType_;
};

} // namespace repro::ir

#endif // IR_VALUE_H
