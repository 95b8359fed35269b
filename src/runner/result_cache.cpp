#include "runner/result_cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/check.hpp"
#include "gpu/result_io.hpp"

namespace prosim::runner {

namespace fs = std::filesystem;

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  PROSIM_CHECK_MSG(!ec && fs::is_directory(dir_),
                   ("cannot create cache dir: " + dir_).c_str());
}

std::string ResultCache::path_for(const std::string& key) const {
  return (fs::path(dir_) / (key + ".json")).string();
}

std::optional<GpuResult> ResultCache::load(const std::string& key) const {
  std::ifstream in(path_for(key));
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  // An unreadable entry (say, from an older schema) is a miss.
  Expected<GpuResult> parsed = gpu_result_from_json(text.str());
  if (!parsed.has_value()) return std::nullopt;
  return std::move(parsed.value());
}

bool ResultCache::store(const std::string& key, const GpuResult& result) const {
  // Unique temp name per writer thread; rename is atomic within the
  // directory, so a concurrent identical store just wins the race.
  std::ostringstream tmp_name;
  tmp_name << key << ".tmp." << std::this_thread::get_id();
  const fs::path tmp = fs::path(dir_) / tmp_name.str();
  {
    std::ofstream out(tmp);
    if (!out) return false;
    write_gpu_result_json(out, result);
    out << "\n";
    if (!out) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path_for(key), ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace prosim::runner
