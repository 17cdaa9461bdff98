(** Hashing anonymised trace IPs onto datacenter hosts.

    The Yahoo! trace's IPs are anonymised; the paper "uses a hash
    function to map the IP addresses of the source and destination of
    each flow into our datacenter network". This module is that hash: a
    64-bit mix (same finalizer family as SplitMix64) reduced modulo the
    host count, with a deterministic collision fix-up so a flow never
    maps to [src = dst].

    An IPv4 address is passed as its [int32] value held in an [int]
    ([Int32.to_int]): an [int32] argument would be boxed on every
    call. *)

val host_of_ip : host_count:int -> int -> int
(** The host index in [0, host_count) an address hashes to. Requires
    [host_count >= 1]. *)

val peer_of_ip : host_count:int -> src:int -> int -> int
(** The destination host of a flow from host [src]: the address's
    {!host_of_ip}, shifted deterministically to the next host when it
    collides with [src]. Requires [host_count >= 2]. *)
