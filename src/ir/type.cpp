#include "ir/type.h"

#include <sstream>

#include "support/diagnostics.h"

namespace repro::ir {

uint64_t
Type::sizeInBytes() const
{
    switch (kind_) {
      case Kind::Void: return 0;
      case Kind::I1: return 1;
      case Kind::I32: return 4;
      case Kind::I64: return 8;
      case Kind::Float: return 4;
      case Kind::Double: return 8;
      case Kind::Pointer: return 8;
      case Kind::Array: return arraySize_ * element_->sizeInBytes();
      case Kind::Function: return 0;
    }
    return 0;
}

std::string
Type::str() const
{
    switch (kind_) {
      case Kind::Void: return "void";
      case Kind::I1: return "i1";
      case Kind::I32: return "i32";
      case Kind::I64: return "i64";
      case Kind::Float: return "float";
      case Kind::Double: return "double";
      case Kind::Pointer: return element_->str() + "*";
      case Kind::Array: {
        std::ostringstream os;
        os << "[" << arraySize_ << " x " << element_->str() << "]";
        return os.str();
      }
      case Kind::Function: {
        std::ostringstream os;
        os << element_->str() << " (";
        for (size_t i = 0; i < params_.size(); ++i) {
            if (i)
                os << ", ";
            os << params_[i]->str();
        }
        os << ")";
        return os.str();
      }
    }
    return "<invalid>";
}

TypeContext::TypeContext()
{
    voidTy_ = make(Type::Kind::Void, nullptr, 0, {});
    i1Ty_ = make(Type::Kind::I1, nullptr, 0, {});
    i32Ty_ = make(Type::Kind::I32, nullptr, 0, {});
    i64Ty_ = make(Type::Kind::I64, nullptr, 0, {});
    floatTy_ = make(Type::Kind::Float, nullptr, 0, {});
    doubleTy_ = make(Type::Kind::Double, nullptr, 0, {});
}

Type *
TypeContext::make(Type::Kind kind, Type *element, uint64_t array_size,
                  std::vector<Type *> params)
{
    all_.emplace_back(new Type(kind, element, array_size,
                               std::move(params)));
    return all_.back().get();
}

Type *
TypeContext::pointerTo(Type *pointee)
{
    reproAssert(pointee != nullptr, "pointerTo(null)");
    auto it = pointerCache_.find(pointee);
    if (it != pointerCache_.end())
        return it->second;
    Type *t = make(Type::Kind::Pointer, pointee, 0, {});
    pointerCache_[pointee] = t;
    return t;
}

Type *
TypeContext::arrayOf(Type *element, uint64_t count)
{
    reproAssert(element != nullptr, "arrayOf(null)");
    auto key = std::make_pair(element, count);
    auto it = arrayCache_.find(key);
    if (it != arrayCache_.end())
        return it->second;
    Type *t = make(Type::Kind::Array, element, count, {});
    arrayCache_[key] = t;
    return t;
}

Type *
TypeContext::functionTy(Type *ret, std::vector<Type *> params)
{
    auto key = std::make_pair(ret, params);
    auto it = funcCache_.find(key);
    if (it != funcCache_.end())
        return it->second;
    Type *t = make(Type::Kind::Function, ret, 0, std::move(params));
    funcCache_[key] = t;
    return t;
}

Type *
TypeContext::import(const Type *foreign)
{
    switch (foreign->kind()) {
      case Type::Kind::Void: return voidTy_;
      case Type::Kind::I1: return i1Ty_;
      case Type::Kind::I32: return i32Ty_;
      case Type::Kind::I64: return i64Ty_;
      case Type::Kind::Float: return floatTy_;
      case Type::Kind::Double: return doubleTy_;
      case Type::Kind::Pointer: return pointerTo(import(foreign->element()));
      case Type::Kind::Array:
        return arrayOf(import(foreign->element()), foreign->arraySize());
      case Type::Kind::Function: {
        std::vector<Type *> params;
        for (Type *p : foreign->params())
            params.push_back(import(p));
        return functionTy(import(foreign->returnType()), std::move(params));
      }
    }
    return nullptr;
}

} // namespace repro::ir
