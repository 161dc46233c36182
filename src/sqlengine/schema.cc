#include "sqlengine/schema.h"

namespace esharp::sql {

Result<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column named '", name, "' in schema [",
                          ToString(), "]");
}

bool Schema::Contains(const std::string& name) const {
  for (const Column& c : columns_) {
    if (c.name == name) return true;
  }
  return false;
}

Result<size_t> Schema::Resolve(const std::string& name) const {
  if (Contains(name)) return IndexOf(name);
  const std::string suffix = "." + name;
  size_t found = SIZE_MAX;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const std::string& col = columns_[i].name;
    if (col.size() > suffix.size() &&
        col.compare(col.size() - suffix.size(), suffix.size(), suffix) == 0) {
      if (found != SIZE_MAX) {
        return Status::InvalidArgument("ambiguous column reference '", name,
                                       "' in schema [", ToString(), "]");
      }
      found = i;
    }
  }
  if (found == SIZE_MAX) {
    return Status::NotFound("no column matching '", name, "' in schema [",
                            ToString(), "]");
  }
  return found;
}

Schema Schema::Concat(const Schema& left, const Schema& right,
                      const std::string& right_prefix) {
  Schema out = left;
  for (const Column& c : right.columns()) {
    Column copy = c;
    if (left.Contains(c.name)) copy.name = right_prefix + c.name;
    out.AddColumn(std::move(copy));
  }
  return out;
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += ":";
    out += DataTypeToString(columns_[i].type);
  }
  return out;
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

}  // namespace esharp::sql
