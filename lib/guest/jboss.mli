(** JBoss application server model.

    The paper's heavyweight service: starting it takes tens of seconds
    and contends with every other VM doing the same, which is why the
    cold-VM reboot's downtime grows so steeply with the number of VMs in
    Figure 6b while the warm-VM reboot (which never restarts it) does
    not. Calibrated so one OS rejuvenation with JBoss costs the paper's
    33.6 s and eleven parallel starts add ~84 s over sshd. *)

val spec : Service.spec

val install : Kernel.t -> Service.t
