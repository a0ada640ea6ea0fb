#include "cluster/storage.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>

#include "support/error.hpp"

namespace mojave::cluster {

namespace fs = std::filesystem;

namespace {

/// Age past which a *.tmp file is crash debris: no writer holds a temp
/// file open this long.
constexpr std::chrono::seconds kStaleTmpAge{60};

}  // namespace

SharedStorage::SharedStorage(fs::path root) : root_(std::move(root)) {
  fs::create_directories(root_);
}

void SharedStorage::write(const std::string& name,
                          std::span<const std::byte> bytes) const {
  const fs::path target = path_for(name);
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path());
  }
  // Unique temp name per writer: two nodes racing to publish the same
  // object (e.g. the same content-addressed chunk) must not interleave
  // writes into one temp file and rename a torn result.
  static std::atomic<std::uint64_t> nonce{0};
  const fs::path tmp = target.string() + "." + std::to_string(::getpid()) +
                       "." + std::to_string(nonce++) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("storage: cannot open " + tmp.string());
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw Error("storage: short write to " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec) throw Error("storage: rename failed: " + ec.message());
}

std::optional<std::vector<std::byte>> SharedStorage::read(
    const std::string& name) const {
  std::ifstream in(path_for(name), std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) return std::nullopt;
  return bytes;
}

bool SharedStorage::exists(const std::string& name) const {
  return fs::exists(path_for(name));
}

void SharedStorage::remove(const std::string& name) const {
  std::error_code ec;
  fs::remove(path_for(name), ec);
}

std::vector<std::string> SharedStorage::list(const std::string& subdir) const {
  std::vector<std::string> names;
  const fs::path base = subdir.empty() ? root_ : root_ / subdir;
  std::error_code ec;
  if (!fs::is_directory(base, ec)) return names;
  const auto now = fs::file_time_type::clock::now();
  for (fs::recursive_directory_iterator it(base, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    if (p.extension() == ".tmp") {
      // In-flight writes are invisible; a temp file no writer can still
      // own (a crash between write and rename) is swept so a
      // resurrection daemon never tries to restore a torn name.
      std::error_code tec;
      const auto mtime = fs::last_write_time(p, tec);
      if (!tec && now - mtime > kStaleTmpAge) fs::remove(p, tec);
      continue;
    }
    names.push_back(p.lexically_relative(root_).generic_string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace mojave::cluster
