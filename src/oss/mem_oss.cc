#include "oss/mem_oss.h"

#include <algorithm>

namespace scalla::oss {

FileState MemOss::StateOf(const std::string& path) {
  std::lock_guard lock(mu_);
  return files_.count(path) != 0 ? FileState::kOnline : FileState::kAbsent;
}

Result<void> MemOss::Create(const std::string& path) {
  std::lock_guard lock(mu_);
  if (files_.count(path) != 0) {
    return Result<void>::Err(proto::XrdErr::kExists, "create '" + path + "': exists");
  }
  if (capacity_ != 0 && total_ >= capacity_) {
    return Result<void>::Err(proto::XrdErr::kNoSpace, "create '" + path + "': no space");
  }
  files_[path] = File{std::string(), clock_.Now()};
  return Result<void>::Ok();
}

Result<void> MemOss::Write(const std::string& path, std::uint64_t offset,
                           std::string_view data) {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Result<void>::Err(proto::XrdErr::kNotFound, "write '" + path + "': not found");
  }
  File& f = it->second;
  const std::uint64_t size = f.data.size();
  const std::uint64_t end = offset + data.size();
  if (end > size) {
    const std::uint64_t growth = end - size;
    if (capacity_ != 0 && total_ + growth > capacity_) {
      return Result<void>::Err(proto::XrdErr::kNoSpace, "write '" + path + "': no space");
    }
    // Grow by appending: only a sparse gap before `offset` is zero-filled,
    // and `data` replaces the whole tail from `offset` on.
    if (offset > size) f.data.append(static_cast<std::size_t>(offset - size), '\0');
    f.data.replace(static_cast<std::size_t>(offset), std::string::npos, data);
    total_ += growth;
  } else {
    std::copy(data.begin(), data.end(), f.data.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  f.mtime = clock_.Now();
  return Result<void>::Ok();
}

Result<std::string> MemOss::Read(const std::string& path, std::uint64_t offset,
                                 std::uint32_t length) {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Result<std::string>::Err(proto::XrdErr::kNotFound,
                                    "read '" + path + "': not found");
  }
  const File& f = it->second;
  if (offset >= f.data.size()) return std::string();  // EOF: empty read
  const std::size_t n = std::min<std::size_t>(length, f.data.size() - offset);
  return f.data.substr(offset, n);
}

std::optional<StatInfo> MemOss::Stat(const std::string& path) {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return StatInfo{it->second.data.size(), it->second.mtime};
}

Result<void> MemOss::Unlink(const std::string& path) {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Result<void>::Err(proto::XrdErr::kNotFound, "unlink '" + path + "': not found");
  }
  total_ -= it->second.data.size();
  files_.erase(it);
  return Result<void>::Ok();
}

std::vector<std::string> MemOss::List(const std::string& prefix) {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

void MemOss::Put(const std::string& path, std::string data) {
  std::lock_guard lock(mu_);
  PutLocked(path, std::move(data));
}

void MemOss::PutLocked(const std::string& path, std::string data) {
  File& f = files_[path];
  total_ = total_ - f.data.size() + data.size();
  f = File{std::move(data), clock_.Now()};
}

std::size_t MemOss::FileCount() const {
  std::lock_guard lock(mu_);
  return files_.size();
}

std::uint64_t MemOss::TotalBytes() const {
  std::lock_guard lock(mu_);
  return total_;
}

}  // namespace scalla::oss
