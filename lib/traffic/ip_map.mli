(** Hashing anonymised trace IPs onto datacenter hosts.

    The Yahoo! trace's IPs are anonymised; the paper "uses a hash
    function to map the IP addresses of the source and destination of
    each flow into our datacenter network". This module is that hash: a
    64-bit mix (same finalizer family as SplitMix64) reduced modulo the
    host count, with a deterministic collision fix-up so a flow never
    maps to [src = dst]. *)

val host_pair :
  host_count:int -> src_ip:int32 -> dst_ip:int32 -> int * int
(** Maps both endpoints, each IPv4 address (as int32) hashed to a host
    index in [0, host_count); when they collide onto the same host the
    destination is shifted deterministically to the next host. Requires
    [host_count >= 2]. *)
