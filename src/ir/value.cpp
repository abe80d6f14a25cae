#include "ir/value.h"

#include <algorithm>
#include <sstream>

#include "ir/instruction.h"
#include "support/diagnostics.h"

namespace repro::ir {

void
Value::removeUser(Instruction *inst)
{
    auto it = std::find(users_.begin(), users_.end(), inst);
    reproAssert(it != users_.end(), "removeUser: not a user");
    users_.erase(it);
}

void
Value::replaceAllUsesWith(Value *replacement)
{
    reproAssert(replacement != this, "RAUW with self");
    // Take a copy: setOperand mutates users_.
    std::vector<Instruction *> users = users_;
    for (Instruction *user : users) {
        for (size_t i = 0; i < user->numOperands(); ++i) {
            if (user->operand(i) == this)
                user->setOperand(i, replacement);
        }
    }
}

void
Value::dropUses()
{
    for (Instruction *user : users_)
        user->forgetOperand(this);
    users_.clear();
}

std::string
Value::handle() const
{
    if (!name_.empty())
        return "%" + name_;
    std::ostringstream os;
    os << "%" << id_;
    return os.str();
}

std::string
Constant::handle() const
{
    std::ostringstream os;
    if (isFP_) {
        os << fpValue_;
        if (os.str().find('.') == std::string::npos &&
            os.str().find('e') == std::string::npos &&
            os.str().find("inf") == std::string::npos &&
            os.str().find("nan") == std::string::npos) {
            os << ".0";
        }
    } else {
        os << intValue_;
    }
    return os.str();
}

} // namespace repro::ir
