#include "dfs/mini_dfs.h"

#include <algorithm>

#include "common/logging.h"
#include "serde/serde.h"

namespace hamr::dfs {

MiniDfs::MiniDfs(cluster::Cluster& cluster, DfsConfig config)
    : cluster_(cluster), config_(config) {
  config_.replication = std::max<uint32_t>(
      1, std::min<uint32_t>(config_.replication, cluster_.size()));
  for (uint32_t i = 0; i < cluster_.size(); ++i) {
    cluster::Node& node = cluster_.node(i);
    node.rpc().register_method(
        rpc_id::kReadBlock, [&node](NodeId /*caller*/, std::string_view arg) {
          auto data = node.store().read_file(std::string(arg));
          data.status().ExpectOk();
          return std::string(*data.value());
        });
    node.rpc().register_method(
        rpc_id::kWriteBlock, [&node](NodeId /*caller*/, std::string_view arg) {
          // arg := varint path_len | path | data
          serde::Reader r(arg);
          const std::string path(r.get_bytes());
          node.store().write_file(path, std::string(arg.substr(r.position())));
          return std::string();
        });
  }
}

std::string MiniDfs::block_path(uint64_t block_id) const {
  return "dfs/blk_" + std::to_string(block_id);
}

Status MiniDfs::write(NodeId writer_node, const std::string& path,
                      std::string_view data) {
  DfsFileInfo info;
  info.path = path;
  info.size = data.size();

  // Carve out blocks and reserve ids under the namenode lock, then do the
  // data transfers without holding it.
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t offset = 0;
    do {
      const uint64_t len = std::min<uint64_t>(config_.block_size, data.size() - offset);
      BlockInfo block;
      block.block_id = next_block_id_++;
      block.offset = offset;
      block.length = len;
      // First replica on the writer (Hadoop's local-write policy), the rest
      // round-robin so data spreads across the cluster.
      block.replicas.push_back(writer_node);
      for (uint32_t r = 1; r < config_.replication; ++r) {
        NodeId candidate = (writer_node + 1 + next_placement_++) % cluster_.size();
        if (candidate == writer_node) candidate = (candidate + 1) % cluster_.size();
        block.replicas.push_back(candidate);
      }
      info.blocks.push_back(block);
      offset += len;
    } while (offset < data.size());
  }

  for (const BlockInfo& block : info.blocks) {
    const std::string_view chunk = data.substr(block.offset, block.length);
    for (NodeId replica : block.replicas) {
      if (replica == writer_node) {
        cluster_.node(replica).store().write_file(block_path(block.block_id),
                                                  std::string(chunk));
      } else {
        ByteBuffer buf;
        serde::Writer w(buf);
        w.put_bytes(block_path(block.block_id));
        buf.append(chunk);
        auto result = cluster_.node(writer_node)
                          .rpc()
                          .call_sync(replica, rpc_id::kWriteBlock,
                                     std::string(buf.view()));
        if (!result.ok()) return result.status();
      }
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  files_[path] = std::move(info);
  return Status::Ok();
}

Result<std::string> MiniDfs::fetch_block(NodeId reader_node, const BlockInfo& block) {
  // Prefer the local replica; otherwise fetch from the first replica through
  // the network (disk charge happens on the replica inside the RPC handler).
  for (NodeId replica : block.replicas) {
    if (replica == reader_node) {
      auto data =
          cluster_.node(reader_node).store().read_file(block_path(block.block_id));
      if (!data.ok()) return data.status();
      return std::string(*data.value());
    }
  }
  const NodeId source = block.replicas.at(reader_node % block.replicas.size());
  return cluster_.node(reader_node)
      .rpc()
      .call_sync(source, rpc_id::kReadBlock, block_path(block.block_id));
}

Result<std::string> MiniDfs::read(NodeId reader_node, const std::string& path) {
  auto info = stat(path);
  if (!info.ok()) return info.status();
  std::string out;
  out.reserve(info.value().size);
  for (const BlockInfo& block : info.value().blocks) {
    auto chunk = fetch_block(reader_node, block);
    if (!chunk.ok()) return chunk.status();
    out += chunk.value();
  }
  return out;
}

Result<std::string> MiniDfs::read_range(NodeId reader_node, const std::string& path,
                                        uint64_t offset, uint64_t length) {
  auto info = stat(path);
  if (!info.ok()) return info.status();
  const DfsFileInfo& file = info.value();
  if (offset >= file.size) return std::string();
  length = std::min<uint64_t>(length, file.size - offset);

  std::string out;
  out.reserve(length);
  for (const BlockInfo& block : file.blocks) {
    const uint64_t block_end = block.offset + block.length;
    if (block_end <= offset || block.offset >= offset + length) continue;
    auto chunk = fetch_block(reader_node, block);
    if (!chunk.ok()) return chunk.status();
    const uint64_t from = std::max(offset, block.offset) - block.offset;
    const uint64_t to = std::min(offset + length, block_end) - block.offset;
    out.append(chunk.value(), from, to - from);
  }
  return out;
}

Result<DfsFileInfo> MiniDfs::stat(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("dfs file: " + path);
  return it->second;
}

bool MiniDfs::exists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Status MiniDfs::remove(const std::string& path) {
  DfsFileInfo info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("dfs file: " + path);
    info = std::move(it->second);
    files_.erase(it);
  }
  for (const BlockInfo& block : info.blocks) {
    for (NodeId replica : block.replicas) {
      (void)cluster_.node(replica).store().remove(block_path(block.block_id));
    }
  }
  return Status::Ok();
}

std::vector<std::string> MiniDfs::list(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

uint64_t MiniDfs::total_size(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (auto it = files_.lower_bound(prefix); it != files_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    total += it->second.size;
  }
  return total;
}

}  // namespace hamr::dfs
